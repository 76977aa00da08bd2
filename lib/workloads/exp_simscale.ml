module Load_gen = Udma_traffic.Load_gen
module Shard_gen = Udma_traffic.Shard_gen
open Experiment

(* ------------------------------------------------------------------ *)
(* E17: sharded engine throughput scaling                              *)
(* ------------------------------------------------------------------ *)

(* One fixed open-loop point on a large mesh, repeated per domain
   count. The event/window/post counters and the traffic result are
   identical for every row (the kernel is domain-count-invariant; the
   [deterministic] meta flag asserts it), so only the wall-clock rate
   columns vary between hosts and runs — they are advisory, never
   anchored. The counters are held exactly by the golden digests of
   test/golden/all_quick.md5 ([dune runtest]) and all.md5 (CI), which
   mask only the wall-clock fields and [host_cores]. *)
let e17_mesh = { Load_gen.default_config with nodes = 256 }

let report_simscale ~load ~domains_list (cfg : Load_gen.config) =
  if domains_list = [] then invalid_arg "report_simscale: empty domains list";
  let send_cycles = Load_gen.calibrate ~msg_bytes:cfg.msg_bytes () in
  let per_kcycle = load *. 1000.0 /. float_of_int send_cycles in
  let cfg = { cfg with arrival = Udma_traffic.Arrival.Poisson { per_kcycle } } in
  let runs =
    List.map
      (fun domains ->
        let t0 = Unix.gettimeofday () in
        let result, ks = Shard_gen.run_stats ~domains ~send_cycles cfg in
        let wall = Unix.gettimeofday () -. t0 in
        (domains, result, ks, wall))
      domains_list
  in
  let fingerprint (r : Load_gen.result) (ks : Shard_gen.kernel_stats) =
    (ks.Shard_gen.events, ks.Shard_gen.windows, ks.Shard_gen.cross_posts,
     r.Load_gen.injected, r.Load_gen.delivered, r.Load_gen.latencies)
  in
  let _, r0, k0, base_wall = List.hd runs (* one run per domain count *) in
  let deterministic =
    List.for_all (fun (_, r, k, _) -> fingerprint r k = fingerprint r0 k0) runs
  in
  Udma_obs.Report.make ~id:"e17_simscale"
    ~title:
      (Printf.sprintf
         "E17: sharded engine throughput — events/sec vs worker domains, \
          %d-node mesh at load %.1f" cfg.nodes load)
    ~meta:
      [
        ("nodes", vi cfg.nodes);
        ("width", vi r0.Load_gen.width);
        ("load", vf load);
        ("msg_bytes", vi cfg.msg_bytes);
        ("send_cycles", vi send_cycles);
        ("warmup_cycles", vi cfg.warmup_cycles);
        ("window_cycles", vi cfg.window_cycles);
        ("seed", vi cfg.seed);
        ("host_cores", vi (Domain.recommended_domain_count ()));
        ("deterministic", vb deterministic);
      ]
    ~columns:
      [
        ("domains", "domains");
        ("shards", "shards");
        ("events", "events");
        ("windows", "windows");
        ("cross_posts", "x-posts");
        ("delivered", "delivered");
        ("events_per_sec", "events/s");
        ("speedup", "speedup");
      ]
    (List.map
       (fun (domains, (r : Load_gen.result), (ks : Shard_gen.kernel_stats),
             wall) ->
         [
           ("domains", vi domains);
           ("shards", vi ks.Shard_gen.shards);
           ("events", vi ks.Shard_gen.events);
           ("windows", vi ks.Shard_gen.windows);
           ("cross_posts", vi ks.Shard_gen.cross_posts);
           ("injected", vi r.Load_gen.injected);
           ("delivered", vi r.Load_gen.delivered);
           ("mean_latency", vf r.Load_gen.mean_latency);
           ("p99_latency", vi r.Load_gen.p99_latency);
           ("wall_ms", vf (wall *. 1000.0));
           ( "events_per_sec",
             vf
               (if wall > 0.0 then float_of_int ks.Shard_gen.events /. wall
                else 0.0) );
           ("speedup", vf (if wall > 0.0 then base_wall /. wall else 0.0));
         ])
       runs)

let e17 =
  {
    exp_name = "simscale";
    exp_alias = "e17";
    exp_doc =
      "E17: sharded-engine throughput — events/sec and speedup vs worker \
       domains on a 256-node mesh (counters deterministic, rates \
       host-dependent).";
    exp_run =
      Param.const (fun ~quick ~seed ->
          let cfg = { e17_mesh with seed } in
          let domains_list, cfg =
            if quick then ([ 1; 2 ], { cfg with window_cycles = 20_000 })
            else ([ 1; 2; 4 ], cfg)
          in
          [ report_simscale ~load:0.9 ~domains_list cfg ]);
    exp_anchors = [];
  }
