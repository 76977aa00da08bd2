(** The protection backend behind user-level DMA initiation.

    The paper's network interface decides, at initiation time, whether
    a user access may name a given destination page. This module makes
    that decision pluggable so one experiment can pit three protection
    designs against identical multi-tenant traffic:

    - {b Proxy} — the paper's proxy-space decode: the table {e is} the
      NIPT, per-process proxy mappings (enforced by the MMU) carry the
      ownership check, and the datapath adds zero cycles. This is the
      production decode path extracted from the network interface;
      {!decode} and {!validate_bits} reproduce the old [Nipt]
      behaviour bit for bit.
    - {b Iommu} — an IOMMU translation path (ARMv8-style virtual-address
      RDMA): the authoritative table is an in-memory I/O page table
      walked on an IOTLB miss, with kernel-mediated map/unmap and
      shootdowns on teardown.
    - {b Capability} — CAPIO-style per-transfer capability validation:
      every initiation pays a capability check, and teardown revokes
      the capability (a later presentation faults as {!fault.Revoked}).

    Every backend keeps two views of the same table: the kernel's
    authoritative grants and the datapath-visible decode state (the
    NIPT itself, the IOTLB, the capability-validation table). The
    cross-tenant isolation invariant I5 is that the datapath view
    never escapes the grants: see {!check}. *)

type kind = Proxy | Iommu | Capability

val kind_name : kind -> string
val all_kinds : kind list

val parse_kind : string -> (kind, string) result

type entry = { owner : int; dst_node : int; dst_frame : int }
(** One destination: the granting tenant (pid) plus the remote
    (node, physical page) pair the old NIPT entry carried. *)

type fault =
  | Misaligned   (** address or count not 4-byte aligned *)
  | No_mapping   (** no entry configured for the page *)
  | Not_owner    (** entry exists but belongs to another tenant *)
  | Revoked      (** capability presented after teardown *)

val fault_name : fault -> string

(** Per-backend datapath and control-path cycle costs. The proxy
    backend has no entries here: its decode is free (the MMU already
    did the work) and its kernel grant cost is the ordinary
    [map_device_proxy] syscall the caller charges. *)
type costs = {
  iotlb_hit : int;     (** IOTLB hit on the initiation path *)
  iotlb_walk : int;    (** I/O page-table walk on an IOTLB miss *)
  iommu_map : int;     (** kernel-mediated IOMMU map, per page *)
  iommu_unmap : int;   (** unmap + IOTLB shootdown, per page *)
  cap_check : int;     (** per-transfer capability validation *)
  cap_grant : int;     (** capability creation at grant time *)
  cap_revoke : int;    (** revocation walk at teardown *)
}

val default_costs : costs

type stats = {
  st_grants : int;
  st_revokes : int;
  st_invalidations : int;  (** datapath invalidations (NIPT clears,
                               IOTLB shootdowns, capability kills) *)
  st_iotlb_hits : int;
  st_iotlb_misses : int;
  st_authorizations : int;
  st_denials : int;
}

type t

val create :
  ?costs:costs -> ?iotlb_entries:int -> kind -> entries:int -> unit -> t
(** A backend over [entries] destination pages. [iotlb_entries]
    (default 8) sizes the IOMMU backend's IOTLB; ignored otherwise. *)

val kind : t -> kind
val capacity : t -> int
val valid_count : t -> int

(** {1 Datapath (device decode — the old NIPT surface)} *)

val err_misaligned : int
val err_no_mapping : int

val decode : t -> index:int -> entry option
(** What the hardware decodes for device page [index]: the NIPT /
    capability-validation entry, or the live grant for the IOMMU
    (whose datapath cache is the IOTLB, exercised by {!authorize}).
    [None] for invalid or unconfigured entries; no cycle cost. *)

val validate_bits : t -> dev_addr:int -> nbytes:int -> page_size:int -> int
(** The initiation-time device check, bit-identical to the old
    network-interface [validate]: bit 0 on a misaligned address or
    count, bit 1 on an unconfigured entry. *)

(** {1 Kernel-mediated control path} *)

val grant :
  t -> owner:int -> index:int -> dst_node:int -> dst_frame:int -> int
(** Configure destination [index] for tenant [owner]; returns the
    backend-specific cycle cost (0 for proxy — the caller charges the
    map syscall). Overwriting an existing grant shoots down any
    datapath state for the index first. *)

val revoke : t -> index:int -> int
(** Tear down one destination: clear the grant and invalidate the
    datapath entry (NIPT clear / IOTLB shootdown / capability kill);
    returns the cycle cost. No-op (cost 0) if the index holds no
    grant. *)

val revoke_owner : t -> owner:int -> int
(** Tenant teardown: revoke every grant owned by [owner]; returns the
    summed cost. *)

(** {1 Protected initiation} *)

val authorize : t -> tenant:int -> index:int -> (entry * int, fault * int) result
(** The per-transfer protection decision for tenant [tenant] naming
    device page [index]; returns the entry and the datapath cycles
    spent, or the fault and the cycles wasted. A negative [tenant] is
    the MMU-verified caller (the real NI datapath, where per-process
    proxy mappings already established identity) and skips the owner
    comparison. Successful authorizations are journalled for
    {!check}. *)

(** {1 The I5 oracle} *)

val check : t -> string option
(** Cross-tenant isolation, I5: (a) every datapath-visible entry
    (NIPT / IOTLB / capability) is backed by a live grant with the
    same owner, so no stale entry survives teardown; and (b) no
    journalled authorization paired a tenant with a page it does not
    own, or a page whose grant was already gone (an isolation leak).
    Returns the first counterexample. *)

val stats : t -> stats
