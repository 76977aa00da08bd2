(** Memory management unit: translation and permission checking.

    This is the hardware the UDMA mechanism reuses (paper §3): every
    user reference — including references to proxy space — is
    translated and permission-checked here, so proxy-page mappings are
    exactly as protected as ordinary pages. Faults are raised as
    exceptions for the kernel to handle. *)

type access = Read | Write

val pp_access : Format.formatter -> access -> unit

type fault_kind =
  | Not_present   (** no mapping, or mapping marked not present *)
  | Protection    (** write to a read-only page *)
  | Out_of_range  (** address in no architected region *)

exception Fault of { vaddr : int; access : access; kind : fault_kind }

type t

val create : layout:Layout.t -> tlb_capacity:int -> t

val tlb : t -> Tlb.t

val translate : t -> Page_table.t -> access -> int -> int
(** [translate t pt access vaddr] checks the virtual address against
    the layout, consults the TLB then the page table, enforces
    [present] and (for [Write]) [writable], sets the referenced bit —
    and the dirty bit on writes — and returns the physical address.
    Whether the TLB held the entry is left in {!tlb_hit}. Raises
    {!Fault} on any failure. *)

val tlb_hit : t -> bool
(** Whether the last successful {!translate} found its entry in the
    TLB. *)

val rehit : t -> int -> int -> bool
(** [rehit t vaddr k] accounts [k] more [Read] translations of [vaddr]
    that hit the TLB, as {!translate} would make them ({!Tlb.rehit}),
    and returns [true]; returns [false], changing nothing, when the
    entry is not cached and present. The caller has just translated
    [vaddr], so its referenced bit is already set. *)

val probe : t -> Page_table.t -> access -> int -> (int, fault_kind) result
(** Like {!translate} but returns the fault instead of raising, and
    does not disturb referenced/dirty bits, the TLB or {!tlb_hit}. *)

val flush_tlb : t -> unit
(** Full TLB flush (performed on context switch). *)

val flush_tlb_page : t -> vpn:int -> unit
(** Invalidate one cached translation (performed on unmap/remap and on
    permission downgrades such as write-protecting a proxy page). *)
