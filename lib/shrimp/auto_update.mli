(** Automatic update — SHRIMP's second transfer strategy.

    The paper under reproduction evaluates deliberate update, but §9
    notes that the design "retains the automatic update transfer
    strategy described in [5], which still relies upon fixed mappings
    between source and destination pages": once the kernel binds a
    local physical page to a remote page, the network interface snoops
    ordinary writes to that page on the memory bus and propagates them
    to the remote node with no initiation at all.

    The snooper merges consecutive writes: a run of stores to
    contiguous, ascending addresses accumulates in a combining buffer
    that is flushed when the run breaks, when the buffer fills, or
    after a quiet window. *)

type config = {
  combine_bytes : int;   (** combining-buffer capacity (default 64) *)
  flush_window : int;    (** cycles of write silence before a flush *)
}

type t

val create :
  machine:Udma_os.Machine.t -> ni:Network_interface.t -> ?config:config ->
  unit -> t
(** Attach the snooper to the machine's bus. Updates leave through
    [ni]'s normal outgoing path (same FIFO and link). *)

val bind : t -> frame:int -> dst_node:int -> dst_frame:int -> unit
(** Kernel operation: future writes to physical page [frame] are
    propagated to page [dst_frame] on [dst_node] at the same offset
    (the fixed page mapping of §9). Raises [Invalid_argument] if the
    frame is already bound. *)

val unbind : t -> frame:int -> unit
(** Stop propagation (flushes any pending combined run first). *)

val updates_sent : t -> int
(** Update packets launched. *)

val words_combined : t -> int
(** Words merged into an already-open run. *)
