(** The UDMA hardware (paper §5 Figure 4, §7).

    Sits between the CPU bus and a standard {!Udma_dma.Dma_engine}:
    it claims the physical memory-proxy and device-proxy regions as
    I/O ranges, interprets the STORE/LOAD initiation sequence with
    {!State_machine}, applies [PROXY⁻¹] to translate physical proxy
    addresses to real addresses, enforces page boundaries by clamping
    (§8: transfers are initiated optimistically and the hardware
    enforces boundaries), and answers every proxy LOAD with a
    {!Status.t} word.

    Two hardware designs are provided:
    - [Basic] (§5): one outstanding transfer; the machine stays in
      [Transferring] until the DMA completes.
    - [Queued ~depth] (§7): accepted requests go to a hardware queue
      and the initiation machine returns to [Idle] immediately, so
      multi-page and unrelated transfers can be outstanding together.
      Per-frame reference counters and an associative query support the
      kernel's I4 check; a second, higher-priority queue is reserved
      for the system. *)

type mode = Basic | Queued of { depth : int }

type priority = User | System

type t

val create :
  engine:Udma_sim.Engine.t ->
  layout:Udma_mmu.Layout.t ->
  bus:Udma_dma.Bus.t ->
  dma:Udma_dma.Dma_engine.t ->
  ?mode:mode ->
  ?trace:Udma_sim.Trace.t ->
  ?metrics:Udma_obs.Metrics.t ->
  unit ->
  t
(** Creates the engine and registers its I/O ranges (the whole memory
    proxy region and the whole device proxy region) on [bus]. [mode]
    defaults to [Basic]. [trace] receives typed
    events (proxy references, state-machine transitions, queue
    traffic); [metrics] holds the engine's counts under [udma.*]
    names, which {!counters} reads back, and records the
    [udma.transfer_cycles] histogram. *)

val mode : t -> mode
val state : t -> State_machine.state

val attach_device :
  t ->
  base_page:int ->
  pages:int ->
  port:Udma_dma.Device.port ->
  ?validate:(dev_addr:int -> nbytes:int -> int) ->
  unit ->
  unit
(** [attach_device t ~base_page ~pages ~port ?validate ()] binds
    device-proxy pages [base_page .. base_page+pages-1] to [port].
    A device-proxy byte at (page, offset) is device-internal address
    [(page - base_page) * page_size + offset]. [validate] returns
    device-specific error bits for a proposed transfer (default: always
    0). Raises [Invalid_argument] on overlap, out-of-range pages or a
    [port] already bound, so a device-proxy address and its (port,
    device address) name each other. *)

(** {1 The bus-visible behaviour}

    These are exercised through the {!Udma_dma.Bus.io_handler} the
    engine registers, but are exposed for direct tests. *)

val handle_store : t -> paddr:int -> int32 -> unit

val handle_load : t -> paddr:int -> int32
(** The encoded status word ({!Status.decode} reads it back). A load
    in a state where {!State_machine.load_is_probe} holds is answered
    without calling {!State_machine.step}, by the same rows of it. *)

val count_probes : t -> int -> unit
(** [count_probes t k] records [k] status probes that were answered
    without reaching the engine because each would have repeated the
    last one ({!Udma_os.Kernel}'s completion polls). *)

(** {1 Kernel interface} *)

val invalidate : t -> unit
(** The I1 context-switch action: equivalent to storing a negative
    count to any valid proxy address. *)

val mem_frame_busy : t -> frame:int -> bool
(** The I4 check: is physical page [frame] named by the SOURCE or
    DESTINATION register of an in-flight transfer, by the latched
    DESTINATION of a partial initiation, or (queued mode) by any
    outstanding queued request? *)

val refcount : t -> frame:int -> int
(** Queued mode's per-page reference counter (§7); in basic mode it is
    1 for frames of the in-flight transfer and 0 otherwise. *)

val abort_active : t -> bool
(** Kernel operation: terminate the transfer in flight (no data is
    moved, the initiating process sees its match flag clear and no
    arrival). §5: a mechanism "for software to terminate a transfer
    and force a transition from the Transferring state to the Idle
    state ... is not hard to imagine adding. This could be useful for
    dealing with memory system errors". Returns [false] when nothing
    is in flight. Queued mode dispatches the next request. *)

val enqueue_system :
  t -> src_proxy:int -> dest_proxy:int -> nbytes:int ->
  (unit, [ `Full | `Rejected ]) result
(** Kernel-only port into the higher-priority system queue (§7).
    Addresses are physical proxy addresses. In basic mode behaves as a
    depth-0 queue: [Error `Full] whenever the engine is busy. *)

val outstanding : t -> int
(** Transfers accepted but not yet completed (active + queued). *)

(** {1 Oracle introspection}

    Read-only views of the engine's registers and queues, used by the
    invariant oracles in [Udma_check] to decide I3/I4 directly against
    the hardware state. *)

type req_view = {
  v_priority : priority;
  v_elements : Udma_dma.Descriptor.element list;
}
(** [v_elements] is every flat element of the (possibly shaped)
    request: its descriptor expanded on demand, so the oracles can
    check each page an irregular transfer touches. *)

val outstanding_views : t -> req_view list
(** Resolved endpoints of the active transfer plus every queued
    request, active first. *)

val outstanding_frames : t -> int list
(** Multiset of memory frames referenced by outstanding requests —
    exactly what the per-frame reference counters must account for. *)

val refcounts_snapshot : t -> (int * int) list
(** All nonzero per-frame reference counters, sorted by frame. *)

(** {1 Instrumentation} *)

type counters = {
  initiations : int;     (** transfers started or accepted *)
  completions : int;
  bad_loads : int;
  invals : int;
  probes : int;          (** loads answered with status only *)
  clamped : int;         (** initiations shortened at a page boundary *)
  refused_full : int;    (** queued mode: queue-full refusals *)
  device_errors : int;
  aborts : int;          (** kernel-terminated transfers *)
  shape_latches : int;   (** strided/sg shape words latched *)
}

val counters : t -> counters

val set_start_hook :
  t -> (src_proxy:int -> dest_proxy:int -> nbytes:int -> unit) -> unit
(** Test hook invoked whenever a transfer is started or accepted, with
    the physical proxy base addresses of the pair — used by the I1
    property tests to detect cross-process pairing. *)
