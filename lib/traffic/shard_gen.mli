(** Sharded load generator on the conservative parallel kernel.

    The same open-loop service-model workload as {!Load_gen}, rebuilt
    hop-granularly on {!Udma_sim.Shard} (one shard per mesh row, the
    link hop latency as lookahead) so an E11-class sweep parallelises
    across OCaml domains and scales to 32×32 meshes — past the legacy
    engine's 64-node cap.

    Model differences against the legacy path, and why:
    - Link claims happen hop by hop in event order at each link's
      owning shard, where the legacy router claims a packet's whole
      path atomically at send time against global link state (the
      unshardable part). Both telescope to the same uncontended
      latency; under contention they resolve queueing differently, so
      sharded results are pinned by E17's golden digest, not against
      legacy knees.
    - Supported config subset: dimension-order routing, one VC,
      unlimited rx credits, open-loop arrivals, no link faults.
      Anything else raises [Invalid_argument] naming the legacy
      engine.
    - Per-node RNG streams come from {!Udma_sim.Rng.substream} with
      unbiased draws, so they depend only on (seed, node id).

    Results are byte-identical for every [domains] value: the kernel's
    cross-shard merge order is partition-independent, and all stats
    merge through order-insensitive reductions. *)

type kernel_stats = {
  events : int;  (** events executed across all shards *)
  windows : int;  (** conservative windows (barrier rounds) *)
  cross_posts : int;  (** cross-shard messages during the run *)
  shards : int;  (** mesh rows *)
}

val max_nodes : int
(** 1024 (a 32×32 mesh). *)

val validate : Load_gen.config -> (unit, string) result
(** [Error msg] outside the 2..{!max_nodes} cap and the supported
    subset above, then {!Load_gen.validate_workload}. *)

val run :
  ?domains:int -> ?send_cycles:int -> Load_gen.config -> Load_gen.result
(** [run cfg] drives the sharded mesh and reports in the exact
    {!Load_gen.result} shape (with [credit_stalls = 0]).
    [domains] (default 1) is the worker-domain count; it never affects
    the result, only wall-clock. [send_cycles] is the per-message
    initiation cost; when omitted it is calibrated with a real warm
    send exactly as a legacy run would. *)

val run_stats :
  ?domains:int ->
  ?send_cycles:int ->
  Load_gen.config ->
  Load_gen.result * kernel_stats
(** As {!run}, also returning the kernel's event/window counters (E17
    reports them with its events/sec rate). *)
