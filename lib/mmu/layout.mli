(** Address-space layout with proxy regions (paper §4, Figures 2–3).

    Both the virtual and the physical address space are divided into
    three regions, recognised by high-order address bits:

    {v
      [0,            span)             memory space
      [span,         2*span)           memory proxy space
      [2*span,       2*span + devsz)   device proxy space
    v}

    where [span] is a power of two at least as large as the real memory.
    The paper's [PROXY] function is then the fixed-offset scheme it
    recommends: [PROXY(a) = a + span], [PROXY⁻¹(p) = p - span]. The same
    layout is used for virtual and physical spaces, so one value of
    {!t} describes both. *)

type t

type region =
  | Mem        (** real memory *)
  | Mem_proxy  (** memory proxy space *)
  | Dev_proxy  (** device proxy space *)

val pp_region : Format.formatter -> region -> unit

val create : page_size:int -> mem_pages:int -> dev_pages:int -> t
(** [create ~page_size ~mem_pages ~dev_pages]. [page_size] must be a
    power of two; page counts positive. *)

val page_size : t -> int
val mem_pages : t -> int
val dev_pages : t -> int

val span : t -> int
(** Size of the memory region in bytes (power of two). *)

val mem_proxy_base : t -> int
val dev_proxy_base : t -> int

val region_of : t -> int -> region option
(** [region_of t addr] classifies an address; [None] if it falls in no
    region (beyond installed memory, in the proxy hole, or past the
    device proxy region). *)

val proxy_of : t -> int -> int
(** [proxy_of t addr] is [PROXY(addr)] for an address in [Mem].
    Raises [Invalid_argument] otherwise. *)

val unproxy : t -> int -> int
(** [unproxy t addr] is [PROXY⁻¹(addr)] for an address in [Mem_proxy].
    Raises [Invalid_argument] otherwise. *)

val dev_proxy_addr : t -> page:int -> offset:int -> int
(** [dev_proxy_addr t ~page ~offset] is the device-proxy address naming
    byte [offset] of device-proxy page [page]. Raises
    [Invalid_argument] when out of range. *)

val dev_proxy_index : t -> int -> int * int
(** [dev_proxy_index t addr] is [(page, offset)] for a [Dev_proxy]
    address. Raises [Invalid_argument] otherwise. *)

val page_of_addr : t -> int -> int
(** Page number within the whole (virtual or physical) space. *)

val offset_in_page : t -> int -> int

val addr_of_page : t -> int -> int

val page_base : t -> int -> int
(** [page_base t addr] rounds [addr] down to its page boundary. *)

val same_page : t -> int -> int -> bool

val crosses_page : t -> addr:int -> len:int -> bool
(** [crosses_page t ~addr ~len] is [true] when [addr .. addr+len-1]
    spans a page boundary ([len >= 1]). *)
