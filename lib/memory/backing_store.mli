(** Backing store (swap) for demand paging.

    Pages are identified by an abstract slot handle. The VM writes a
    page's contents out when cleaning or evicting and reads them back
    on a page-in. Contents are stored faithfully so tests can verify
    that data survives eviction/reload cycles. *)

type t

type slot
(** Handle for one stored page. *)

val create : page_size:int -> t

val slots_used : t -> int

val store : t -> bytes -> slot
(** [store t page] writes a fresh slot. [Bytes.length page] must equal
    [page_size]. *)

val overwrite : t -> slot -> bytes -> unit
(** [overwrite t s page] replaces the slot's contents (page cleaning). *)

val load : t -> slot -> bytes
(** [load t s] is a copy of the slot's contents.
    Raises [Invalid_argument] if the slot was released. *)

val release : t -> slot -> unit
(** [release t s] frees the slot; further access raises. *)
