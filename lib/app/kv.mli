(** Sharded key-value store over protected user-level DMA (E16).

    [shards] server shards live on mesh nodes [0 .. shards-1]; every
    node runs [clients_per_node] closed-loop clients. A client draws a
    key, hashes it to a shard (a [hot_pct] share of draws is pinned to
    shard 0 — the hotspot-shard skew), and sends a small request
    through the real UDMA path. The server charges [server_cycles] of
    lookup plus the calibrated reply-initiation cost on its own CPU
    queue, then answers:

    - a {b read} (the common op) replies with the [value_bytes] value
      as a deliberate-update transfer {e into the client's own mapped
      receive buffer} — the zero-copy read path: the value lands in
      client memory by receive-side DMA deposit and the client reads
      it with cached loads; no kernel, no interrupt, no copy;
    - a {b write} carries the value with the request and replies with
      an 8-byte ack.

    Request latency is end to end: client enqueue (think-time expiry)
    to reply deposit, so it includes client CPU queueing, credit
    stalls, link contention and the server's queue. [load] is the
    target fraction of one node's reply-initiation capacity (think
    time = [clients_per_node · send_cycles / load]); the realized
    throughput is reported. Deterministic under the fabric seed. *)

type config = {
  fabric : Udma_traffic.Fabric.config;
  shards : int;  (** 1..nodes; shard i is served by node i *)
  clients_per_node : int;
  value_bytes : int;  (** 4-byte multiple <= 4092 *)
  req_bytes : int;  (** request size (default 64) *)
  write_pct : int;  (** % of ops that are writes, 0..100 *)
  hot_pct : int;  (** % of key draws pinned to shard 0, 0..100 *)
  server_cycles : int;  (** per-op lookup/update cost on the shard CPU *)
  warmup_cycles : int;
  window_cycles : int;
  load : float;  (** > 0; target fraction of reply-initiation capacity *)
  chaos_links : bool;  (** seeded kill/slow/heal storm during the run *)
}

val default_config : config
(** 16 nodes via {!Udma_traffic.Fabric.default_config}, shards = nodes, 4 clients
    per node, 2048-byte values, 64-byte requests, 10 % writes, no
    hotspot, 120-cycle server op, 2k warmup, 60k window, load 0.6,
    no chaos. *)

type result = {
  issued : int;  (** requests born inside the window *)
  completed : int;  (** of those, replies delivered *)
  reads : int;
  writes : int;
  stats : Slo.stats;  (** end-to-end request latency, all window ops *)
  cold_stats : Slo.stats;  (** same, ops whose shard is not the hot one *)
  throughput_per_kcycle : float;  (** completed per node per 1000 cycles *)
  send_cycles : int;  (** calibrated reply (value) initiation cost *)
  think_cycles : int;
  credit_stalls : int;
  chaos_events : int;
  drained : bool;  (** every issued request completed after the drain *)
}

val validate : config -> (unit, string) Stdlib.result
(** [Error msg] for a config outside the documented ranges: the
    application's own limits first, then {!Udma_traffic.Fabric.validate}. *)

val run : ?probe:(Udma_sim.Engine.t -> unit) -> config -> result
(** Deterministic under [config.fabric.seed]; [probe] receives the
    fabric's engine before the run (for cycle-breakdown collection).
    Raises [Invalid_argument msg] when {!validate} gives
    [Error msg]. *)
