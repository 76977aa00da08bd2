(** Modular DMA controller (paper §2, Figure 1, refactored along the
    iDMA frontend/midend/backend split).

    The engine accepts a transfer as a {!Descriptor.t}: an affine
    cursor (a flat transfer, or a strided one as the UDMA engine latches
    it) or an array of elements. The frontend ({!Frontend}) validates
    it element by element, the midend ({!Midend}) lays out one burst
    per element with per-element fetch cost, and the backend
    ({!Backend}) realizes bus occupancy against {!Bus.timing}. Every
    layer walks the same cursor with int accessors; nothing builds a
    record per element. One transfer may be in flight at a time; it
    occupies the bus for the planned cycles plus any device-side
    latency, then raises its completion callback (the "interrupt").
    Data is deposited atomically at completion time.

    A one-element descriptor is the flat single-burst transfer: one
    source, one destination, one length. The engine moves data between
    memory and exactly one device endpoint per element —
    memory-to-memory and device-to-device are refused, which is what
    makes the UDMA [BadLoad] event observable (paper §5). *)

type endpoint = Descriptor.endpoint =
  | Mem of int                  (** physical byte address in real memory *)
  | Dev of Device.port * int    (** device port + device-internal address *)

type error = Descriptor.error =
  | Busy                  (** a transfer is already in flight *)
  | Bad_size              (** nbytes <= 0 or beyond device/memory limits *)
  | Unsupported_pair      (** mem→mem or dev→dev *)
  | Device_refused        (** endpoint not readable/writable at that address *)

val pp_error : Format.formatter -> error -> unit
(** Alias of {!Descriptor.pp_error}. *)

type t

val create :
  engine:Udma_sim.Engine.t ->
  bus:Bus.t ->
  ?trace:Udma_sim.Trace.t ->
  ?metrics:Udma_obs.Metrics.t ->
  unit ->
  t
(** [trace] receives a typed [Dma_burst] event per planned burst;
    [metrics] receives the [dma.transfers] / [dma.bytes_moved]
    counters. Both default to throwaway instances (standalone engines
    in unit tests). *)

val busy : t -> bool

val submit_desc :
  t -> Descriptor.t -> on_complete:(unit -> unit) -> (unit, error) result
(** [submit_desc t desc ~on_complete] begins a transfer of [desc]'s
    elements, in order. [on_complete] fires (via the simulation engine)
    after the modelled duration, after all elements' data has been
    moved. *)

val submit :
  t ->
  Descriptor.element list ->
  on_complete:(unit -> unit) ->
  (unit, error) result
(** {!submit_desc} of {!Descriptor.of_list}. *)

val count : t -> int
(** Total bytes requested by the in-flight transfer; 0 when idle. *)

val remaining_bytes : t -> int
(** Bytes not yet on the wire, burst-aware: progress is zero during
    each burst's fetch/setup/device overhead and advances one word per
    [burst_word_cycles] after — what the hardware byte counter would
    read. 0 when idle. *)

val transfer_base : t -> int option
(** Memory-side physical base address of the in-flight transfer's first
    element, if it has one (the base register a flat transfer loads).
    The kernel's I4 check reads {!mem_page_in_flight} instead, which
    covers every element. *)

val mem_page_in_flight : t -> page_size:int -> int -> bool
(** [mem_page_in_flight t ~page_size frame] is [true] when physical
    page [frame] overlaps the memory side of {e any} element of the
    in-flight transfer; the elements are walked on the cursor. *)

val abort : t -> bool
(** Cancel the in-flight transfer (no data is moved — including
    elements of a multi-element transfer not yet reached — and no
    completion callback fires). Returns [false] when idle. The paper
    notes such a mechanism "is not hard to imagine adding" (§5); it is
    exercised in failure-injection tests. *)

val transfers_completed : t -> int
val bytes_moved : t -> int
