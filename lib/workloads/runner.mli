(** Experiment harnesses — one per paper table/figure (see DESIGN.md §4
    for the index).

    Each experiment is declared once, as an {!experiment} record in
    {!experiments}: its command name and eN alias, its typed
    parameters ({!Param}: flag, doc, default and [--quick] value), the
    one function that runs it, and the anchors CI checks on its
    output. [bench/main.exe], its anchor gate and every
    [bin/shrimp_sim.exe] experiment command derive from that record.
    The [report_*] functions below are the experiments' entry points
    for direct callers (tests, micro-benchmarks); an omitted argument
    takes the declared default. Each returns a {!Udma_obs.Report.t}:
    rows, parameters and a cycle breakdown, from which the paper-style
    table and the JSON document both derive. *)

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

(** {1 E7 — I4 remap-check vs. pinning} *)

val report_pinning : unit -> Report.t
(** Static per-page costs plus a dynamic paging-under-transfers run
    reporting I4 skips and deferred cleans ([label]/[value]/[unit]
    rows). *)

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

(** {1 E11 — traffic saturation (lib/traffic)} *)

val report_saturation :
  ?loads:float list ->
  ?nodes:int ->
  ?pattern:Udma_traffic.Pattern.t ->
  ?msg_bytes:int ->
  ?warmup_cycles:int ->
  ?window_cycles:int ->
  ?link_contention:bool ->
  ?routing:Udma_shrimp.Router.routing ->
  ?link_per_word:int ->
  ?vc_count:int ->
  ?rx_credits:int option ->
  ?crossing:Udma_shrimp.Router.crossing ->
  ?flit_words:int ->
  ?seed:int ->
  ?domains:int ->
  unit ->
  Report.t
(** Latency vs offered load on a mesh driven by
    {!Udma_traffic.Sweep}: one row per load point (offered/delivered
    throughput, latency percentiles, head-of-line blocking), with the
    detected saturation knee flagged in the rows and recorded in the
    meta as [knee_load] (or the string ["none"]). Deterministic under
    [seed]. [domains] (default 1) selects the worker-domain count for
    the sharded engine; per {!Udma_traffic.Sweep.use_sharded} the
    legacy single-engine path — and its exact report bytes — is kept
    whenever [domains = 1] and [nodes <= 64]. On the sharded path the
    meta gains [engine]/[domains] fields and the report is identical
    for every [domains] value. [crossing] (default [`Analytic])
    selects the wire model; [`Flit] pins the legacy engine and adds
    [crossing]/[flit_words] meta fields, leaving analytic reports
    byte-identical to the pre-flit runner. *)

(** {1 E12 — routing policy comparison (lib/shrimp router)} *)

val report_adaptive :
  ?loads:float list ->
  ?nodes:int ->
  ?patterns:Udma_traffic.Pattern.t list ->
  ?msg_bytes:int ->
  ?warmup_cycles:int ->
  ?window_cycles:int ->
  ?link_per_word:int ->
  ?seed:int ->
  unit ->
  Report.t
(** The E11 sweep re-run per pattern under both routing policies
    (contention on): one row per pattern with the saturation knee
    under dimension-order ([knee_dim]) and minimal-adaptive
    ([knee_adaptive]), the knee shift, and the heaviest point's
    head-of-line blocking under each. The defaults (2 KB messages,
    [link_per_word = 2]) put the bottleneck on the contended links
    rather than the send initiation path, so the policy choice is
    visible in the knee. Deterministic under [seed]. *)

(** {1 E13 — hotspot saturation vs virtual channels} *)

val report_hotspot :
  ?loads:float list ->
  ?nodes:int ->
  ?pcts:int list ->
  ?vc_counts:int list ->
  ?msg_bytes:int ->
  ?warmup_cycles:int ->
  ?window_cycles:int ->
  ?link_per_word:int ->
  ?rx_credits:int option ->
  ?seed:int ->
  unit ->
  Report.t
(** The E12 link-bound regime under a hotspot pattern: one row per
    (hotspot share, VC count) with the saturation knee and, at the
    heaviest load, the source-side credit stalls and link-queue
    ceiling. More VCs let cold flows backfill around a blocked
    hotspot packet (the knee holds or improves as the share grows);
    finite [rx_credits] (default [Some 8]) convert residual overload
    into [credit_stalls] instead of unbounded link depth.
    Deterministic under [seed]. *)

(** {1 E18 — flit-level wormhole crossing vs the analytic wire} *)

val report_flit :
  ?load:float ->
  ?nodes:int ->
  ?hot_pct:int ->
  ?vc_counts:int list ->
  ?msg_bytes:int ->
  ?warmup_cycles:int ->
  ?window_cycles:int ->
  ?link_per_word:int ->
  ?rx_credits:int option ->
  ?flit_words:int ->
  ?seed:int ->
  unit ->
  Report.t
(** The E13 hotspot regime (default: 50 % hotspot share, 2 KB
    messages, link-bound wires, 8 deposit credits) run at one offered
    load under both wire models, per VC count: [hol_delta] is the p99
    latency the packet-granularity analytic crossing under-reports
    (flit p99 minus analytic p99 — head-of-line blocking through the
    per-(link, VC) input FIFOs a stalled worm occupies across links),
    [hol_cycles] counts link flit-cycles a free wire spent blocked on
    VC/credit availability, and [occupancy] is the per-VC mean/max
    buffered-flit profile. Both shrink from 1 VC to 4 as cold flits
    interleave around the blocked worm. Deterministic under [seed]. *)

(** {1 E14 — multi-tenant protection backends} *)

val report_tenants :
  ?tenant_counts:int list ->
  ?kinds:Udma_protect.Backend.kind list ->
  ?slots:int ->
  ?ops:int ->
  ?churn_pct:int ->
  ?evict_pct:int ->
  ?rogue_pct:int ->
  ?seed:int ->
  unit ->
  Report.t
(** {!Udma_protect.Tenants.run} per (backend, tenant count): one row
    with initiation p50/p99/p999, the recovered-fault rate, rogue
    probes denied, grant and invalidation traffic, the IOTLB hit rate
    (IOMMU rows) and the isolation-breach count (always 0). Defaults
    sweep {8, 64, 256, 1024} tenants over 64 table slots for all
    three backends; every backend faces the identical op stream, so
    rows differ only in protection-path costs. Deterministic under
    [seed]. *)

(** {1 E15: bandwidth vs transfer shape} *)

type shape_case =
  | Shape_contig
  | Shape_strided of int
      (** source reads 64 bytes every [64 * factor]; destination packs
          densely *)
  | Shape_sg of int
      (** total destination elements across the whole transfer,
          scattered within each initiation's device page *)

val report_shapes : ?total:int -> ?cases:shape_case list -> unit -> Report.t
(** Move [total] bytes to the device in every shape ([cases] default:
    contiguous, stride factors 2..64, SG 2..256 elements), on
    basic and queued hardware: per-shape end-to-end cycles, bytes per
    cycle and bandwidth relative to the contiguous transfer of the same
    mode. Strided and scatter-gather shapes go through shaped
    initiations ({!Udma.Initiator.start_shaped}); the descriptor-fetch
    and per-element burst-setup costs produce the overhead knee as
    element count rises at fixed total bytes. *)

(** {1 E16 — application workloads over the UDMA fabric (lib/app)} *)

val report_kv :
  ?loads:float list ->
  ?nodes:int ->
  ?shards:int ->
  ?clients_per_node:int ->
  ?value_bytes:int ->
  ?write_pct:int ->
  ?hot_pct:int ->
  ?vcs:int ->
  ?link_per_word:int ->
  ?slo:float ->
  window_cycles:int ->
  ?chaos:bool ->
  ?seed:int ->
  unit ->
  Report.t
(** {!Udma_app.Kv.run} swept over offered loads: one row per load with
    request count, end-to-end latency percentiles (plus the cold — non
    hot-shard — p99), throughput, credit stalls and the drain check;
    the SLO knee (first sustained load where p99 exceeds [slo] times
    the lightest load's p50) lands in the meta. [shards] defaults to
    [nodes]. Deterministic under [seed]. *)

val report_kv_vcs :
  ?load:float ->
  ?nodes:int ->
  ?vc_counts:int list ->
  ?value_bytes:int ->
  ?hot_pct:int ->
  ?link_per_word:int ->
  ?window_cycles:int ->
  ?seed:int ->
  unit ->
  Report.t
(** The KV store in the E13 head-of-line regime (write-heavy traffic
    into a hot shard, link-bound wires) at one load, per VC count: the
    app-level payoff of virtual channels as a p99 / cold-p99 drop.
    Deterministic under [seed]. *)

val report_halo :
  ?loads:float list ->
  ?nodes:int ->
  ?tile_rows:int ->
  ?row_bytes:int ->
  ?halo_cols:int ->
  iterations:int ->
  ?warmup_iters:int ->
  ?slo:float ->
  ?seed:int ->
  unit ->
  Report.t
(** {!Udma_app.Halo.run} swept over send-work shares: one row per load
    with per-(node, iteration) barrier-latency percentiles, the
    derived compute budget, makespan and the drain check; east/west
    halos go through the strided (shaped) send path, whose calibrated
    cost lands in the meta next to the contiguous one. Because the
    compute budget shrinks as the send-work share grows, the SLO knee
    is detected on the exchange {e overhead} (barrier time minus the
    compute floor), not on raw barrier times. Deterministic under
    [seed]. *)

val report_rpc :
  ?loads:float list ->
  ?nodes:int ->
  ?resp_bytes:int ->
  ?server_cycles:int ->
  ?burst:int ->
  ?pool:int ->
  ?slo:float ->
  window_cycles:int ->
  ?seed:int ->
  unit ->
  Report.t
(** {!Udma_app.Rpc.run} swept over target server utilisations: one row
    per load with arrival-to-reply latency percentiles (backlog wait
    included), burst count, completed vs offered throughput and the
    drain check; the SLO knee in the meta. Deterministic under
    [seed]. *)

val report_simscale :
  ?nodes:int ->
  ?load:float ->
  ?msg_bytes:int ->
  ?warmup_cycles:int ->
  ?window_cycles:int ->
  ?domains_list:int list ->
  ?seed:int ->
  unit ->
  Report.t
(** E17: the sharded conservative engine ({!Udma_traffic.Shard_gen})
    run on one fixed open-loop point (default: 16x16 mesh at load 0.9)
    once per entry of [domains_list] (default [[1; 2; 4]]). One row
    per domain count with the kernel counters (events, windows,
    cross-shard posts), the traffic result, and the wall-clock
    events/sec + speedup over the first entry. The counters and the
    traffic result are identical across rows — the [deterministic]
    meta flag asserts it — while the rate columns depend on the host
    ([host_cores] meta records {!Domain.recommended_domain_count});
    the anchored throughput baseline lives in [BENCH_sim.json]. *)

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
