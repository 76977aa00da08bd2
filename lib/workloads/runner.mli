(** Experiment harnesses — one per paper table/figure (see DESIGN.md §4
    for the index).

    Each experiment is declared once, as an {!experiment} record in
    {!experiments}: its command name and eN alias, its typed
    parameters ({!Param}: flag, doc, default and [--quick] value), the
    one function that runs it, and the anchors CI checks on its
    output. Every [bin/shrimp_sim.exe] experiment command, [all] and
    its [--check] anchor gate derive from that record. The [report_*]
    functions below are the entry points the tests call directly; an
    omitted argument takes the declared default. Each returns a
    {!Udma_obs.Report.t}: rows, parameters and a cycle breakdown, from
    which the paper-style table and the JSON document both derive. *)

module Report = Udma_obs.Report

(** {1 E1 — Figure 8: deliberate-update bandwidth vs. message size} *)

val report_figure8 :
  ?sizes:int list -> ?messages:int -> ?queued:bool -> unit -> Report.t
(** 2-node SHRIMP, back-to-back blocking sends of each size
    ([messages] per point), normalised to the maximum measured
    bandwidth, exactly as Figure 8: one row per size with
    [cycles_per_msg], [bytes_per_cycle] and [pct_of_max]. [queued]
    (default false) swaps in the §7 queued hardware and the pipelined
    initiator as an ablation. *)

(** {1 E2 — initiation cost (the §8 "2.8 µs" and §1/§2 contrast)} *)

val report_costs : unit -> Report.t
(** UDMA two-reference initiation vs. the traditional kernel paths
    (pin and copy strategies, 4 B and 4 KB), on the default profile:
    one [label]/[cycles]/[us] row per path. *)

(** {1 E3 — §1 HIPPI motivation: kernel DMA bandwidth vs. block size} *)

val report_hippi : ?blocks:int list -> unit -> Report.t
(** Kernel-initiated DMA on the HIPPI cost profile over a ~96 MB/s
    channel; reproduces "2.7 MB/s at 1 KB" and the large-block
    requirement for 80 % utilisation ([block], [mbytes_per_s],
    [pct_of_channel] rows). *)

(** {1 E4 — §9 PIO-FIFO vs. UDMA crossover} *)

val report_crossover : ?sizes:int list -> ?trials:int -> unit -> Report.t
(** One-way user-to-user latency per size ([udma_cycles],
    [pio_cycles], [winner]). *)

(** {1 E5 — §7 queueing ablation} *)

val report_queueing :
  ?total_sizes:int list -> ?depths:int list -> unit -> Report.t
(** One multi-page transfer per total size: [basic_cycles] and one
    [depth_D] column per queue depth. *)

(** {1 E6 — I1 atomicity under preemption} *)

val report_atomicity :
  ?probs_pct:int list -> ?transfers:int -> ?seed:int -> unit -> Report.t
(** Per preemption probability: [retries], [avg_cycles] and the
    cross-process pairings observed ([violations], must be 0). [seed]
    (default 42) drives the preemption coin flips; the per-point RNG
    is seeded with [seed + pct] so runs replay exactly. *)

(** {1 E8 — §6 proxy-fault costs} *)

val report_proxy_faults : unit -> Report.t
(** Cold (fault + mapping) vs. warm proxy references; the in-core,
    paged-out and illegal cases. *)

(** {1 E9 — I3 policy ablation (§6's two content-consistency methods)} *)

val report_i3 : ?transfers:int -> ?pages:int -> unit -> Report.t
(** Incoming (device-to-memory) transfers across [pages] buffers with a
    page-cleaning daemon running between rounds, one row per policy
    ([Write_upgrade] then [Proxy_dirty_union]): [cycles],
    [proxy_faults], [upgrades], [cleans]. The union policy trades
    upgrade faults for paging-code complexity, as §6 predicts. *)

(** {1 E10 — deliberate vs automatic update (§9)} *)

val report_updates : unit -> Report.t
(** Word-grain scattered updates vs bulk sequential writes, sent with
    a deliberate-update UDMA transfer per update vs snooped automatic
    update ([deliberate_cycles], [automatic_cycles],
    [deliberate_packets], [automatic_packets]). Automatic update
    should win fine-grain scattered writes; deliberate update should
    win bulk. *)

(** {1 The registry} *)

type experiment = {
  exp_name : string;  (** command name, e.g. ["figure8"] *)
  exp_alias : string;  (** short alias, e.g. ["e1"] *)
  exp_doc : string;  (** one-line description *)
  exp_run : (quick:bool -> seed:int -> Report.t list) Param.args;
      (** the declared parameters and the one function that runs the
          experiment on them *)
  exp_anchors : Report.anchor list;
      (** the numbers CI holds to the committed [BENCH_baseline.json],
          read from the [--quick] run *)
}

val experiments : experiment list
(** The experiment registry, E1 to E18 in order. *)

val run : ?quick:bool -> ?seed:int -> experiment -> Report.t list
(** Run one experiment with every parameter at its default, or at its
    quick value when [quick] (default false). [seed] (default 42)
    feeds the randomized experiments. *)

val all_reports : ?quick:bool -> ?seed:int -> unit -> Report.t list
(** {!run} over the whole registry, in order. Each report carries its
    own cycle breakdown; the breakdown's sum equals the total
    simulated cycles across every engine that experiment created. *)

val anchors : Report.anchor list
(** Every experiment's anchors, in registry order. *)
