(** Bursty request–response service with tail-latency SLOs (E16).

    Node 0 is the server; every other node runs one client. Requests
    arrive in {e bursts}: each client draws exponential inter-burst
    gaps (a Poisson process of bursts, via
    {!Udma_traffic.Arrival.next_gap}) and each burst deposits [burst]
    requests at once — the open-loop arrival pattern that makes p999
    interesting. The client pool is {e closed} at [pool] outstanding
    requests per client: arrivals beyond the cap wait in a client-side
    backlog and are issued as replies free slots, so past the knee the
    backlog — not the network — is where latency explodes.

    Latency is measured from {e intended arrival} (when the burst
    generator created the request) to reply deposit, so it includes
    backlog wait, client CPU queueing, both network crossings and the
    server's CPU queue (each reply charges [server_cycles] plus the
    calibrated response initiation).

    [load] targets server utilisation: with per-request server work
    [w = server_cycles + response send cost], the per-client burst
    rate is chosen so the aggregate request rate times [w] equals
    [load]. *)

type config = {
  fabric : Udma_traffic.Fabric.config;
  req_bytes : int;  (** 4-byte multiple *)
  resp_bytes : int;  (** 4-byte multiple <= 4092 *)
  server_cycles : int;  (** per-request service cost on the server CPU *)
  burst : int;  (** requests per burst, >= 1 *)
  pool : int;  (** outstanding-request cap per client, >= 1 *)
  warmup_cycles : int;
  window_cycles : int;
  load : float;  (** > 0; target server utilisation *)
}

val default_config : config
(** 16 nodes via {!Udma_traffic.Fabric.default_config}, 64-byte requests, 512-byte
    responses, 200-cycle service, bursts of 8, pool 16, 2k warmup,
    60k window, load 0.6. *)

type result = {
  issued : int;  (** requests born inside the window *)
  completed : int;  (** of those, replies delivered *)
  bursts : int;  (** bursts generated inside the window *)
  stats : Slo.stats;  (** arrival-to-reply latency, window requests *)
  throughput_per_kcycle : float;  (** completed requests per 1000 cycles *)
  offered_per_kcycle : float;  (** window arrivals per 1000 cycles *)
  send_cycles : int;  (** calibrated response initiation cost *)
  credit_stalls : int;
  drained : bool;  (** every generated request completed *)
}

val validate : config -> (unit, string) Stdlib.result
(** [Error msg] for a config outside the documented ranges: the
    application's own limits first, then {!Udma_traffic.Fabric.validate}. *)

val run : ?probe:(Udma_sim.Engine.t -> unit) -> config -> result
(** Deterministic under [config.fabric.seed]; [probe] receives the
    fabric's engine before the run (for cycle-breakdown collection).
    Raises [Invalid_argument msg] when {!validate} gives
    [Error msg]. *)
