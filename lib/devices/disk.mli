(** Block storage device — the paper's "a device address might name a
    block" example (§4).

    The device-internal address space is the linear block store; block
    [b] occupies device bytes [b·block_size ...]. A seek model charges
    head movement proportional to block distance, so DMA transfers pay
    realistic device-side latency on top of bus occupancy. *)

type t

type geometry = {
  blocks : int;
  block_size : int;      (** bytes; a power of two *)
  seek_base_cycles : int;
  seek_per_block_cycles : int;  (** per block of head travel *)
  transfer_cycles_per_block : int;
}

val create : ?geometry:geometry -> unit -> t

val geometry : t -> geometry

val port : t -> Udma_dma.Device.port
(** DMA port; [access_cycles] implements the seek + media-transfer
    model and updates the head position. *)

val pages : t -> page_size:int -> int

val read_block : t -> int -> bytes
val write_block : t -> int -> bytes -> unit

val head_position : t -> int
(** Current head block (after the last access). *)

val seeks : t -> int
(** Number of non-zero-distance seeks performed. *)
