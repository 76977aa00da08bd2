(** Translation lookaside buffer.

    A small, fully associative, LRU-replaced cache of page-table
    entries. Entries alias the live {!Pte.t} objects, so bit updates
    (dirty/referenced) made through the TLB are visible in the page
    table — but a cached entry must be flushed when the page table
    mapping itself is removed or replaced. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val lookup : t -> int -> Pte.t option
(** [lookup t vpn] is a hit (refreshing LRU order) or [None]. *)

val find : t -> int -> Pte.t
(** [find] is {!lookup} that raises [Not_found] on a miss instead of
    returning an option: the translation fast path allocates nothing
    on a hit. *)

val rehit : t -> int -> int -> bool
(** [rehit t vpn k] does to a cached, present entry for [vpn] what [k]
    more {!find}s would: [k] hits, and the entry is the most recently
    used. Returns [false], changing nothing, when [vpn] is not cached
    or its entry is not present. *)

val insert : t -> int -> Pte.t -> unit
(** [insert t vpn pte] caches an entry, evicting the LRU one if full. *)

val flush_page : t -> int -> unit
(** Drop the entry for [vpn] if cached. *)

val flush_all : t -> unit
(** Full flush (context switch). *)

val hits : t -> int
val misses : t -> int
(** Cumulative counters (a [lookup] returning [None] is a miss). *)
