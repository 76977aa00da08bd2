(** Tenant-scale stress harness for the protection backends (E14).

    Hundreds-to-thousands of tenants on one node multiplex a
    fixed-size destination table ([slots], the NIPT / IOMMU / grant
    capacity) through one {!Backend}: a tenant whose mapping is not
    resident pays the kernel grant path, evicting a victim tenant's
    slot when the table is full. Scheduler churn (deschedules — I1
    Inval storms plus TLB flushes), page eviction under overcommit and
    a rogue tenant probing other tenants' pages are injected at
    configurable rates.

    The per-tenant slot algebra, the RNG draw sequence and every
    control-flow decision are independent of the backend kind, so the
    three backends face {e identical} multi-tenant traffic and differ
    only in cycle costs and fault taxonomy. Everything is
    deterministic under [seed].

    The deterministic-fault contract the qcheck properties pin down:
    once {!initiate} returns [Ok], that transfer is done (authorization
    is checked at initiation only — nothing faults mid-flight); after
    {!deschedule}, {!evict_slot} or {!revoke_tenant}, the affected
    tenant's {e next} {!initiate} returns [Error], every time. *)

type fault = Invalidated | Backend_fault of Backend.fault
(** [Invalidated] is the I1 path: a deschedule invalidated the latched
    initiation, so the next attempt's status read fails and the
    library retries. Backend faults surface the protection check. *)

type config = {
  kind : Backend.kind;
  tenants : int;
  slots : int;       (** destination-table capacity shared by all tenants *)
  ops : int;         (** operations (sends + churn events) to run *)
  churn_pct : int;   (** per-op %: deschedule a random tenant *)
  evict_pct : int;   (** per-op %: evict a random slot (overcommit) *)
  rogue_pct : int;   (** per-op %: rogue cross-tenant probe *)
  seed : int;
  costs : Udma_os.Cost_model.t;
  bcosts : Backend.costs;
}

val default_config : config
(** 8 tenants over 64 slots, 20 000 ops, churn 8 % / evict 4 % /
    rogue 4 %, seed 42, default cost models. *)

type result = {
  sends : int;           (** user sends completed (incl. recoveries) *)
  p50 : int;             (** initiation cycles, end to end per send *)
  p99 : int;
  p999 : int;
  mean : float;
  faults : int;          (** owner-side faults (invalidation, eviction,
                             slot loss) — all recovered *)
  rogue_probes : int;
  rogue_denied : int;    (** must equal [rogue_probes] *)
  grants : int;
  revokes : int;
  invalidations : int;   (** datapath invalidation traffic *)
  iotlb_hits : int;
  iotlb_misses : int;
  isolation_breaches : int;  (** rogue authorizations plus {!Backend.check}
                                 counterexamples — must be 0 *)
}

val validate : config -> (unit, string) Stdlib.result
(** [Error msg] on nonpositive [tenants]/[slots]/[ops], a negative
    injection rate, or rates summing past 100%. *)

val run : config -> result
(** The whole sweep loop; deterministic (equal configs give equal
    results, byte for byte). Raises [Invalid_argument] when
    {!validate} gives [Error]. *)

(** {1 Single-step interface (the qcheck surface)} *)

type t

val create : config -> t
val backend : t -> Backend.t

val attach : t -> tenant:int -> int
(** Kernel grant path: give [tenant] a slot, evicting the round-robin
    victim when the table is full; returns the cycles charged. An
    already-resident tenant keeps its slot and has the grant refreshed
    in place. *)

val initiate : t -> tenant:int -> (int, fault * int) Stdlib.result
(** One user-level send initiation; [Ok cycles] or the deterministic
    fault plus the cycles wasted. Does not recover — callers retry
    after {!attach}. *)

val send : t -> tenant:int -> int
(** Fault-recovering send: initiate, repair (grant) and retry until
    the transfer is accepted; returns total cycles. *)

val deschedule : t -> tenant:int -> unit
(** Scheduler churn: flush the tenant's TLB warmth and invalidate any
    latched initiation (the I1 Inval). *)

val evict_slot : t -> slot:int -> int
(** Page eviction under overcommit: revoke whatever grant occupies
    [slot]; the owning tenant's next initiation faults. *)

val revoke_tenant : t -> tenant:int -> int
(** Teardown: revoke all of the tenant's grants. *)

val rogue_probe : t -> rogue:int -> slot:int -> bool
(** Probe [slot] as tenant [rogue]; [true] when the backend denied it
    (the required outcome — [false] is an isolation breach, also
    counted in the result). *)
