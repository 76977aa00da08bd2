(** Per-address-space page table: virtual page number → {!Pte.t}. *)

type t

val create : unit -> t

val find : t -> int -> Pte.t option
(** [find t vpn] is the entry for virtual page [vpn], if any. *)

val set : t -> int -> Pte.t -> unit
(** [set t vpn pte] installs or replaces the entry. *)

val remove : t -> int -> unit
(** [remove t vpn] drops the entry (no-op if absent). *)

val entries : t -> (int * Pte.t) list
(** All entries, sorted by virtual page number. *)

val mapped_count : t -> int
