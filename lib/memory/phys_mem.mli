(** Simulated physical memory.

    Byte-addressable memory of [frames * page_size] bytes. Frame [f]
    occupies physical bytes [f * page_size .. (f+1) * page_size - 1].
    All accesses are bounds-checked; the MMU is responsible for
    protection, this module only stores bits.

    Storage is a table of one page per frame. Every frame starts on a
    single shared page of zeros that is never written, and gets a page
    of its own when a non-zero byte is first stored into it; storing
    only zero bytes into such a frame leaves it shared, and
    [fill_frame ~frame 0] returns a frame to the shared page. None of
    this is visible through reads: memory behaves as if zero-filled at
    [create]. *)

type t

val create : frames:int -> page_size:int -> t
(** [create ~frames ~page_size] is zero-filled memory.
    Raises [Invalid_argument] if either argument is non-positive or
    [page_size] is not a power of two. *)

val frames : t -> int
val page_size : t -> int
val size : t -> int
(** Total bytes. *)

val materialized : t -> int
(** [materialized t] is the number of frames holding a page of their
    own rather than the shared zero page. *)

val read_byte : t -> int -> int
(** [read_byte t addr] is the byte at physical address [addr].
    Raises [Invalid_argument] when out of range. *)

val write_byte : t -> int -> int -> unit
(** [write_byte t addr v] stores [v land 0xff] at [addr]. *)

val read_word : t -> int -> int32
(** [read_word t addr] reads a little-endian 32-bit word. [addr] must be
    4-byte aligned. *)

val write_word : t -> int -> int32 -> unit
(** Little-endian 32-bit store; [addr] must be 4-byte aligned. *)

val read_bytes : t -> addr:int -> len:int -> bytes
(** [read_bytes t ~addr ~len] copies out a region. *)

val read_into : t -> addr:int -> bytes -> unit
(** [read_into t ~addr b] fills all of [b] from memory at [addr]: the
    {!read_bytes} of a caller that owns the buffer. *)

val write_bytes : t -> addr:int -> bytes -> unit
(** [write_bytes t ~addr b] copies [b] into memory at [addr]. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** [blit t ~src ~dst ~len] copies within physical memory (memmove
    semantics). *)

val fill_frame : t -> frame:int -> int -> unit
(** [fill_frame t ~frame v] fills a whole frame with byte [v]. *)

val frame_base : t -> int -> int
(** [frame_base t f] is the physical address of frame [f]'s first byte. *)

val frame_of_addr : t -> int -> int
(** [frame_of_addr t addr] is the frame containing [addr]. *)
