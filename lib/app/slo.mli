(** Tail-latency statistics and SLO-knee detection for the application
    workloads (E16).

    Every app records one end-to-end latency sample per request and
    summarises a load point as {!stats}. Percentiles are
    {!Udma_obs.Metrics.nearest_rank} (the value at 1-based rank
    [ceil (p/100 · n)]), the convention every exact latency percentile
    in the tree shares: an actual
    observation, not a bucket upper edge — so on small samples the
    tail percentiles coarsen to the maximum (p999 is exactly the
    sample max whenever [n < 1000]).

    The {e SLO knee} is the datacenter-style saturation criterion the
    apps report instead of (and alongside) the throughput knee of
    {!Udma_traffic.Sweep}: the first offered-load point whose p99
    exceeds [slo] times the {e unloaded} p50 — the lightest point's
    median, the service time a tenant was promised — with every
    heavier point violating too (a one-point dip back under the
    multiple disqualifies earlier candidates, mirroring
    {!Udma_traffic.Sweep.detect_knee}'s sustained-saturation rule). *)

type stats = {
  count : int;
  mean : float;  (** 0 when no sample was recorded *)
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
  max : int;
}

val stats_of : int array -> stats
(** Summarise an (unsorted) latency sample; sorts a copy. *)

val empty_stats : stats

val default_slo : float
(** 5.0 — p99 may grow to five times the unloaded median before the
    point counts as violating. *)

val detect_knee : ?slo:float -> (float * stats) list -> int option
(** [detect_knee ~slo points] over (load, stats) points in ascending
    load order: index of the first point of sustained SLO violation
    ([stats.p99 > slo · baseline_p50] where [baseline_p50] is the
    first point's p50), or [None]. A first point with no samples
    anchors no baseline and the result is [None]; [Some 0] means even
    the lightest load violates its own median times [slo]. *)
