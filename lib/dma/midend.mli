(** Midend: burst decomposition and the descriptor cost model.

    Each flat element becomes one bus burst. An element's cost is

    {[ fetch (elements after the first)
       + burst_setup_cycles
       + device access cycles
       + words × burst_word_cycles ]}

    so a single-element plan costs exactly what the flat engine
    charged — [Bus.dma_burst_cycles ~nbytes] plus device latency — and
    multi-element transfers pay a per-element fetch/setup overhead
    that makes short chunks measurably worse (the irregular-DMAC
    effect, measured in experiment E15). *)

type burst = {
  element : Descriptor.element;
  start_cycle : int;      (** cycle offset from transfer start *)
  overhead_cycles : int;  (** fetch (non-first) + setup + device latency *)
  word_cycles : int;      (** per-word cost while data is on the wire *)
  words : int;            (** 32-bit words in the burst *)
  bytes_before : int;
      (** element bytes of every earlier burst: the prefix sum that
          lets the progress counter skip them *)
}

type plan = {
  bursts : burst array;  (** in element order, laid out back to back *)
  total_cycles : int;
  total_bytes : int;
}

val desc_fetch_cycles : Bus.t -> int
(** Cost of fetching one descriptor record: a 4-word (16-byte) burst on
    the same bus, [Bus.dma_burst_cycles ~nbytes:16] (28 cycles at
    default timing). Charged per element after the first. *)

val burst_cycles : burst -> int
(** Total cycles of one burst: overhead + words × per-word. *)

val plan : bus:Bus.t -> ?desc_fetch_cycles:int -> Descriptor.element list -> plan
(** Lay the elements out back-to-back on the bus: each burst starts the
    cycle the previous one ends. The optional [desc_fetch_cycles]
    overrides the self-calibrated fetch cost (used by cost-model
    tests); like the bus timing it must not be negative. *)
