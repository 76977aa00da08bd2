(** Bounded packet FIFO (the outgoing/incoming FIFOs of Figure 6).

    Capacity is accounted in bytes of packet data (header included) so
    big packets occupy proportionally more of the buffer. *)

type t

val create : capacity_bytes:int -> t

val length : t -> int

val push : t -> Packet.t -> bool
(** [false] when the packet does not fit (caller applies
    backpressure). *)

val pop : t -> Packet.t
(** [pop t] removes and returns the oldest packet. Allocates nothing.
    Raises [Invalid_argument] if [t] is empty. *)

val rejections : t -> int
