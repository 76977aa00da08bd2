(** A SHRIMP network packet.

    Built by the sending network interface from a NIPT lookup (paper
    §8, Figure 7): the header carries the destination node and the
    destination {e physical} address, resolved at send time, so the
    receiving side can DMA the payload straight into memory. *)

type t = {
  src_node : int;
  dst_node : int;
  dst_paddr : int;   (** destination physical byte address *)
  payload : bytes;
  seq : int;         (** per-sender sequence number, for tracing *)
}

val size_bytes : t -> int
(** Payload plus the modelled header. *)

val header_bytes : int
(** 16: node ids, address, length. *)
