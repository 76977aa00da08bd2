(** Saturation sweep: step offered load, run one {!Load_gen} mesh per
    point, and find the knee of the latency-vs-offered-load curve.

    Offered load is expressed as a fraction of one source's initiation
    capacity (a calibrated real user-level send every [send_cycles]
    cycles = load 1.0), so the x-axis is stable across message sizes
    and cost-model changes. A point is saturated when its mean
    latency is at least twice the lightest point's mean, or when it
    delivers less than 90 % of what was offered. *)

type point = { load : float; result : Load_gen.result }

type outcome = {
  send_cycles : int;  (** calibrated per-message initiation cost *)
  points : point list;  (** one per requested load, in order *)
  knee_index : int option;
  knee_load : float option;
}

val default_loads : float list

val detect_knee : point list -> int option
(** Index of the first point of {e sustained} saturation: the first
    point saturated with every later point
    saturated too. A non-monotone dip back under the threshold (one
    lucky seed mid-curve) disqualifies earlier candidates, so a dip's
    rebound is never reported as the knee. The lightest point anchors
    the latency baseline, so it must itself pass the efficiency test:
    if it does not, the whole curve starts saturated and the knee is
    [Some 0] (no later point is compared against the saturated
    baseline). *)

val use_sharded : domains:int -> Load_gen.config -> bool
(** Engine dispatch rule for {!over}: the sharded conservative kernel
    ({!Shard_gen}) runs the points when [domains > 1] or the config's
    [nodes > 64]; otherwise the legacy global-engine {!Load_gen} path
    does — so [domains = 1] on a small mesh is byte-identical to the
    engine every committed anchor was produced on. The [`Flit]
    crossing always stays on the legacy engine: the sharded kernel has
    no cycle-level wire model, so flit sweeps ignore [domains]. *)

exception Invalid_config of string
(** A sweep's arguments that {!validate} rejects; {!over} raises it
    before it calibrates or simulates anything. *)

val validate : loads:float list -> domains:int -> Load_gen.config -> (unit, string) result
(** The checks {!over} applies to its arguments: a non-empty list of
    positive loads, [domains >= 1], then {!Shard_gen.validate} or
    {!Load_gen.validate}, whichever engine {!use_sharded} picks. *)

val over :
  ?probe:(Udma_sim.Engine.t -> unit) ->
  ?domains:int ->
  ?loads:float list ->
  Load_gen.config ->
  outcome
(** One run of [config] per load (default {!default_loads}), in order,
    with only the arrival rate varying: each point replaces
    [config.arrival] by the Poisson rate that offers that fraction of
    the calibrated send capacity. Deterministic under [config.seed]:
    equal arguments give equal outcomes, byte for byte — and on the
    sharded path, identical for every [domains] value (default 1),
    which only sets the worker-domain count. [probe] observes each
    point's fresh engine (cycle attribution); it is consulted on the
    legacy path only — the sharded kernel has no global engine to
    probe. Raises {!Invalid_config} when {!validate} rejects the
    arguments — e.g. configs outside the sharded subset (adaptive
    routing, several VCs, finite credits) dispatched to it. *)

val run :
  ?loads:float list ->
  ?probe:(Udma_sim.Engine.t -> unit) ->
  ?nodes:int ->
  ?pattern:Pattern.t ->
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
  outcome
(** {!over} on {!Load_gen.default_config} with the given fields
    replaced. It exists only for [perfbench/workloads.ml], whose
    [mesh_sharded] workload calls it; everything else builds the
    record and calls {!over}. *)
