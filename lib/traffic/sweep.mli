(** Saturation sweep: step offered load, run one {!Load_gen} mesh per
    point, and find the knee of the latency-vs-offered-load curve.

    Offered load is expressed as a fraction of one source's initiation
    capacity (a calibrated real user-level send every [send_cycles]
    cycles = load 1.0), so the x-axis is stable across message sizes
    and cost-model changes. *)

type point = { load : float; result : Load_gen.result }

type outcome = {
  send_cycles : int;  (** calibrated per-message initiation cost *)
  points : point list;  (** one per requested load, in order *)
  knee_index : int option;
  knee_load : float option;
}

val default_loads : float list

val latency_factor : float
(** Knee rule 1: mean latency at least this multiple of the lightest
    point's mean. *)

val min_efficiency : float
(** Knee rule 2: delivered/offered below this fraction. *)

val detect_knee : point list -> int option
(** Index of the first point of {e sustained} saturation: the first
    point saturated under either rule above with every later point
    saturated too. A non-monotone dip back under the threshold (one
    lucky seed mid-curve) disqualifies earlier candidates, so a dip's
    rebound is never reported as the knee. The lightest point anchors
    the latency baseline, so it must itself pass the efficiency test:
    if it does not, the whole curve starts saturated and the knee is
    [Some 0] (no later point is compared against the saturated
    baseline). *)

val use_sharded :
  ?crossing:Udma_shrimp.Router.crossing ->
  nodes:int -> domains:int -> unit -> bool
(** Engine dispatch rule for {!run}: the sharded conservative kernel
    ({!Shard_gen}) runs the points when [domains > 1] or
    [nodes > 64]; otherwise the legacy global-engine {!Load_gen} path
    does — so [domains = 1] on a small mesh is byte-identical to the
    engine every committed anchor was produced on. The [`Flit]
    crossing (default [`Analytic]) always stays on the legacy engine:
    the sharded kernel has no cycle-level wire model, so flit sweeps
    ignore [domains]. *)

exception Invalid_config of string
(** A sweep's arguments that {!validate} rejects; {!run} raises it
    before it calibrates or simulates anything. *)

val validate : loads:float list -> domains:int -> Load_gen.config -> (unit, string) result
(** The checks {!run} applies to its arguments (with [config] standing
    for every point: only its arrival rate varies): a non-empty list of
    positive loads, [domains >= 1], then {!Shard_gen.validate} or
    {!Load_gen.validate}, whichever engine {!use_sharded} picks. *)

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
(** Deterministic under [seed]: equal arguments give equal outcomes,
    byte for byte — and on the sharded path, identical for every
    [domains] value (default 1), which only sets the worker-domain
    count. [probe] observes each point's fresh engine (cycle
    attribution); it is consulted on the legacy path only — the
    sharded kernel has no global engine to probe. Raises
    {!Invalid_config} when {!validate} rejects the arguments — e.g.
    configs outside the sharded subset (adaptive routing, several VCs,
    finite credits) dispatched to it. *)
