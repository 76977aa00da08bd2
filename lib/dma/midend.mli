(** Midend: burst layout and the descriptor cost model.

    Each element of a {!Descriptor.t} becomes one bus burst. An
    element's cost is

    {[ fetch (elements after the first)
       + burst_setup_cycles
       + device access cycles
       + words × burst_word_cycles ]}

    so a single-element plan costs exactly what the flat engine
    charged — [Bus.dma_burst_cycles ~nbytes] plus device latency — and
    multi-element transfers pay a per-element fetch/setup overhead
    that makes short chunks measurably worse (the irregular-DMAC
    effect, measured in experiment E15).

    A plan keeps the descriptor and one int array: the cycle each
    burst's data phase starts at, which is what a progress probe
    searches. Bursts lie back to back, so everything else about burst
    [i] — its start, its end, the bytes before it — follows from that
    array and the descriptor's cursor. A device's [access_cycles] is
    asked once per element, in element order. *)

type plan = private {
  desc : Descriptor.t;
  data_starts : int array;
      (** the cycle each burst's data phase begins, from transfer start *)
  word_cycles : int;  (** per-word cost while data is on the wire *)
  total_cycles : int;
  total_bytes : int;
}

val desc_fetch_cycles : Bus.t -> int
(** Cost of fetching one descriptor record: a 4-word (16-byte) burst on
    the same bus, [Bus.dma_burst_cycles ~nbytes:16] (28 cycles at
    default timing). Charged per element after the first. *)

val plan_desc : bus:Bus.t -> ?desc_fetch_cycles:int -> Descriptor.t -> plan
(** Lay the elements out back-to-back on the bus: each burst starts the
    cycle the previous one ends. The optional [desc_fetch_cycles]
    overrides the self-calibrated fetch cost (used by cost-model
    tests); like the bus timing it must not be negative. *)

val plan : bus:Bus.t -> ?desc_fetch_cycles:int -> Descriptor.element list -> plan
(** {!plan_desc} of {!Descriptor.of_list}. *)

val bursts : plan -> int
(** The number of bursts: one per element. *)

val start_cycle : plan -> int -> int

val burst_cycles : plan -> int -> int
(** Total cycles of burst [i]: fetch/setup/device overhead plus its
    words. *)

val words : plan -> int -> int
(** 32-bit words in burst [i]. *)

val data_start : plan -> int -> int
(** The cycle burst [i]'s data phase begins: its start plus its
    fetch/setup/device overhead. *)
