(** E6–E10: the kernel's side of the paper — the §6 invariants I1, I3
    and I4 with proxy faults, and the §9 update strategies. The
    [report_*] functions are the entry points the tests call directly;
    an omitted argument takes the declared default. *)

(** {1 E6 — I1 atomicity under preemption} *)

val e6 : Experiment.experiment

val report_atomicity :
  ?probs_pct:int list -> ?transfers:int -> ?seed:int -> unit -> Udma_obs.Report.t
(** Per preemption probability: [retries], [avg_cycles] and the
    cross-process pairings observed ([violations], must be 0). [seed]
    (default 42) drives the preemption coin flips; the per-point RNG
    is seeded with [seed + pct] so runs replay exactly. *)

(** {1 E7 — I4 vs pinning} *)

val e7 : Experiment.experiment

(** {1 E8 — §6 proxy-fault costs} *)

val e8 : Experiment.experiment

val report_proxy_faults : unit -> Udma_obs.Report.t
(** Cold (fault + mapping) vs. warm proxy references; the in-core,
    paged-out and illegal cases. *)

(** {1 E9 — I3 policy ablation (§6's two content-consistency methods)} *)

val e9 : Experiment.experiment

val report_i3 : ?transfers:int -> ?pages:int -> unit -> Udma_obs.Report.t
(** Incoming (device-to-memory) transfers across [pages] buffers with a
    page-cleaning daemon running between rounds, one row per policy
    ([Write_upgrade] then [Proxy_dirty_union]): [cycles],
    [proxy_faults], [upgrades], [cleans]. The union policy trades
    upgrade faults for paging-code complexity, as §6 predicts. *)

(** {1 E10 — deliberate vs automatic update (§9)} *)

val e10 : Experiment.experiment

val report_updates : unit -> Udma_obs.Report.t
(** Word-grain scattered updates vs bulk sequential writes, sent with
    a deliberate-update UDMA transfer per update vs snooped automatic
    update ([deliberate_cycles], [automatic_cycles],
    [deliberate_packets], [automatic_packets]). Automatic update
    should win fine-grain scattered writes; deliberate update should
    win bulk. *)
