(** Graphics frame buffer — one of the paper's example UDMA devices
    (§1, §4: "a device address might specify a pixel").

    The device-internal address space is raw pixel memory,
    [width × height × 4] bytes (RGBA8888, row-major). Device-proxy page
    [k] therefore names pixels [k·page_size/4 ...]. *)

type t

val create : width:int -> height:int -> t

val size_bytes : t -> int

val port : t -> Udma_dma.Device.port
(** DMA port over the pixel memory; transfers must be 4-byte (pixel)
    aligned or the UDMA status word reports a device error. *)

val pages : t -> page_size:int -> int
(** Device-proxy pages needed to cover the pixel memory. *)

val get_pixel : t -> x:int -> y:int -> int32
val set_pixel : t -> x:int -> y:int -> int32 -> unit

val row : t -> y:int -> bytes
(** The raw bytes of scanline [y]. *)

val checksum : t -> int
(** Order-sensitive checksum of the whole pixel memory (tests). *)
