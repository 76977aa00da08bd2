(** Typed trace events.

    Every interesting action in the simulated machine (proxy-space
    references, UDMA state-machine transitions, DMA bursts, packet
    launches, page faults, context switches, outgoing-queue traffic)
    is recorded as a structured value carrying its subsystem and the
    cycle at which it happened. String formatting happens only when a
    human asks ({!render}) or a JSON sink drains ({!to_json}) — the
    hot path pays for a constructor allocation, nothing more. *)

type subsystem = Udma | Dma | Vm | Sched | Ni | Dev | Kernel | Sim

type payload =
  | Proxy_store of { proxy : int; value : int }
      (** User STORE into destination proxy space (count word). *)
  | Proxy_load of { proxy : int }
      (** User LOAD from source proxy space (initiates the transfer). *)
  | Sm_transition of { from_ : string; to_ : string; cause : string }
      (** UDMA two-reference state machine moved between states. *)
  | Dma_burst of { src : int; dst : int; nbytes : int; duration : int }
      (** Memory/device burst: start address pair, size, cycles. *)
  | Packetize of { dst_node : int; nbytes : int }
      (** NI cut a payload into a network packet. *)
  | Fault of { vaddr : int; kind : string }
      (** VM fault; [kind] distinguishes page / proxy / protection. *)
  | Context_switch of { pid : int }
  | Queue_push of { queue : string; depth : int }
  | Queue_pop of { queue : string; depth : int }
  | Udma_start of { src : int; dst : int; nbytes : int }
      (** Transfer accepted by the UDMA engine. *)
  | Udma_abort of { reason : string }
  | Link_wait of { from_node : int; to_node : int; wait : int; depth : int }
      (** Packet head-of-line blocked on a busy mesh link. *)
  | Note of string  (** Free-form message; escape hatch, avoid. *)

type t = { time : int; subsystem : subsystem; payload : payload }

val make : time:int -> subsystem -> payload -> t

val render : t -> string
(** One human-readable line, e.g.
    ["udma: start 0x40000 -> 0x80000 (256 bytes)"]. *)

val to_json : t -> Json.t
(** [{"t": cycle, "sub": ..., "kind": ..., ...payload fields}]. *)

(** {1 Sinks}

    A sink consumes events as they are recorded. The ring buffer in
    [Udma_sim.Trace] is one consumer; these are others. *)

type sink = t -> unit

val counting_sink : unit -> sink * (unit -> int)
(** A sink that only counts, and a function to read the count. Useful
    to measure event volume without storing anything. *)

val jsonl_sink : out_channel -> sink
(** Writes each event as one compact JSON line. The caller owns the
    channel (flushing/closing). *)
