(** Multi-node load generator: arrival processes over the mesh
    service model.

    One run builds a fresh k×k {!Udma_shrimp.System} from its config
    (either crossing), attaches a {!Fabric} with a channel for every
    (src, dst) pair the {!Pattern} can produce, calibrates the
    per-message initiation cost with {!Fabric.calibrate_send}, then
    drives the mesh from the configured {!Arrival} process: every
    arrival is one {!Fabric.post} at that cost, so each source is a
    single server occupied [send_cycles] per message before its packet
    takes the full simulated path. Latency is enqueue-to-delivery, so
    source queueing shows up past saturation. Per-source arrival
    streams are split off the generator's own [seed] stream, not the
    fabric's. *)

type config = {
  nodes : int;
      (** 2..64, filling complete rows of the squarest covering mesh
          ({!Udma_shrimp.Router.valid_nodes}): 4, 6, 9, 12, 16, ... *)
  pattern : Pattern.t;
  arrival : Arrival.t;
  msg_bytes : int;  (** positive 4-byte multiple <= 4092 (one packet) *)
  warmup_cycles : int;  (** run-in before measurement starts *)
  window_cycles : int;  (** measurement window *)
  link_contention : bool;  (** router per-link FIFO model on/off *)
  routing : Udma_shrimp.Router.routing;  (** router path policy *)
  link_per_word : int;
      (** router cycles per 4-byte word on a link (>= 1); the default
          matches {!Udma_shrimp.Router.default_config}. Raising it
          models a slower mesh relative to the fixed send-initiation
          cost, which moves the bottleneck from the sources onto the
          contended links (the E12 regime). *)
  vc_count : int;  (** virtual channels per directed link, 1..4 *)
  rx_credits : int option;
      (** deposit slots per (link, VC) receive FIFO ([None] =
          unlimited). With finite credits the source consults
          {!Udma_shrimp.Router.injection_ready} before handing each
          packet to the NI and stalls while the first-hop FIFO is out
          of slots — saturation then shows up as [credit_stalls]
          instead of unbounded link queueing. *)
  crossing : Udma_shrimp.Router.crossing;
      (** wire model under contention: [`Analytic] (default,
          packet-granularity reservations, byte-identical to the
          pre-flit generator) or [`Flit] (cycle-accurate wormhole
          flits; dimension-order only, and the injection gate moves
          inside the network so [credit_stalls] stays 0). *)
  flit_words : int;  (** words per flit in [`Flit] mode (>= 1) *)
  seed : int;
}

val default_config : config
(** 16 nodes, uniform, Poisson 1 msg/kcycle/node, 256 B, 2k warmup,
    50k window, contention on, dimension-order routing, 1 VC,
    unlimited credits, analytic crossing, seed 42. *)

type result = {
  nodes : int;
  width : int;
  send_cycles : int;  (** calibrated per-message initiation cost *)
  window_cycles : int;
  injected : int;  (** arrivals inside the window *)
  launched : int;  (** messages handed to a NI (whole run) *)
  delivered : int;  (** measured arrivals delivered inside the window *)
  offered_per_kcycle : float;  (** injected, per node per 1000 cycles *)
  delivered_per_kcycle : float;
  latencies : int array;  (** sorted enqueue-to-delivery cycles *)
  mean_latency : float;  (** 0 when nothing was delivered *)
  p50_latency : int;
  p95_latency : int;
  p99_latency : int;
  max_latency : int;
  link_wait_cycles : int;  (** total head-of-line blocking (contention) *)
  link_max_depth : int;
  credit_stalls : int;
      (** launches delayed at the injection gate by an out-of-credit
          first-hop deposit FIFO (0 with unlimited credits) *)
  credit_stall_cycles : int;  (** cycles sources spent in those stalls *)
  links : Udma_shrimp.Router.link_stat list;
  flit_hol_cycles : int;
      (** flit mode: link flit-cycles an idle wire spent blocked on
          VC/credit availability — head-of-line blocking (0 in
          analytic mode, which cannot observe it) *)
  flit_occupancy : (float * int) array;
      (** flit mode: per-VC (mean, max) buffered flits across the mesh
          over active flit-cycles; [[||]] in analytic mode *)
}

val percentile_sorted : int array -> float -> int
(** {!Udma_obs.Metrics.nearest_rank} under the name the host benchmark
    ([perfbench/]) reads its latency percentiles through. *)

val summarize :
  nodes:int ->
  width:int ->
  send_cycles:int ->
  window_cycles:int ->
  injected:int ->
  launched:int ->
  delivered:int ->
  latencies:int array ->
  links:Udma_shrimp.Router.link_stat list ->
  credit_stalls:int ->
  credit_stall_cycles:int ->
  flit_hol_cycles:int ->
  flit_occupancy:(float * int) array ->
  result
(** The one result builder both engines ({!run} and
    {!Shard_gen.run_stats}) report through: sorts [latencies] in
    place, then derives the mean, the nearest-rank p50/p95/p99, the
    max, the link-wait sum, the deepest link queue and the per-node
    rates over the window. *)

val validate_workload : config -> (unit, string) Stdlib.result
(** [Error msg] unless [msg_bytes] is a positive 4-byte multiple
    [<= 4092], [link_per_word >= 1], [window_cycles > 0],
    [warmup_cycles >= 0] and {!Arrival.validate} accepts the arrival
    process: the workload limits {!validate} and {!Shard_gen.validate}
    share. *)

val validate : config -> (unit, string) Stdlib.result
(** [Error msg] for a config outside the documented ranges: the
    generator's 2..64 node cap and {!validate_workload} first, then
    {!Udma_shrimp.Router.validate} on the router config the run would
    build. *)

val calibrate : ?msg_bytes:int -> unit -> int
(** {!Fabric.calibrate_send} on a fresh default 2-node system (what a
    run would measure); lets a sweep plan arrival rates relative to
    source capacity before running. *)

val run : ?probe:(Udma_sim.Engine.t -> unit) -> config -> result
(** Deterministic under [config.seed]. [probe] receives the run's
    engine right after creation, before any channel is connected (for
    cycle-attribution collection). Also publishes [traffic.*] counters
    (launches and credit stalls once, at the end, and only when
    non-zero), a [traffic.latency_cycles] histogram, the fabric's
    [app.*] counters and (with contention) [net.link.*] metrics into
    that engine's registry. Raises [Invalid_argument] on a config outside
    the documented ranges, or if the pattern is silent on this mesh. *)
