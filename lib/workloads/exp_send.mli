(** E1–E5: the send path — Figure 8, the §8 initiation cost, the §1
    HIPPI motivation, the §9 PIO crossover and the §7 queueing ablation.
    The [report_*] functions are the entry points the tests call
    directly; an omitted argument takes the declared default. *)

(** {1 E1 — Figure 8: deliberate-update bandwidth vs. message size} *)

val e1 : Experiment.experiment

val report_figure8 :
  ?sizes:int list -> ?messages:int -> ?queued:bool -> unit -> Udma_obs.Report.t
(** 2-node SHRIMP, back-to-back blocking sends of each size
    ([messages] per point), normalised to the maximum measured
    bandwidth, exactly as Figure 8: one row per size with
    [cycles_per_msg], [bytes_per_cycle] and [pct_of_max]. [queued]
    (default false) swaps in the §7 queued hardware and the pipelined
    initiator as an ablation. *)

(** {1 E2 — initiation cost (the §8 "2.8 µs" and §1/§2 contrast)} *)

val e2 : Experiment.experiment

val report_costs : unit -> Udma_obs.Report.t
(** UDMA two-reference initiation vs. the traditional kernel paths
    (pin and copy strategies, 4 B and 4 KB), on the default profile:
    one [label]/[cycles]/[us] row per path. *)

(** {1 E3 — §1 HIPPI motivation: kernel DMA bandwidth vs. block size} *)

val e3 : Experiment.experiment

val report_hippi : ?blocks:int list -> unit -> Udma_obs.Report.t
(** Kernel-initiated DMA on the HIPPI cost profile over a ~96 MB/s
    channel; reproduces "2.7 MB/s at 1 KB" and the large-block
    requirement for 80 % utilisation ([block], [mbytes_per_s],
    [pct_of_channel] rows). *)

(** {1 E4 — §9 PIO-FIFO vs. UDMA crossover} *)

val e4 : Experiment.experiment

val report_crossover : ?sizes:int list -> ?trials:int -> unit -> Udma_obs.Report.t
(** One-way user-to-user latency per size ([udma_cycles],
    [pio_cycles], [winner]). *)

(** {1 E5 — §7 queueing ablation} *)

val e5 : Experiment.experiment

val report_queueing :
  ?total_sizes:int list -> ?depths:int list -> unit -> Udma_obs.Report.t
(** One multi-page transfer per total size: [basic_cycles] and one
    [depth_D] column per queue depth. *)
