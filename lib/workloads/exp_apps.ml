module Report = Udma_obs.Report
module Sweep = Udma_traffic.Sweep
module Fabric = Udma_traffic.Fabric
module App_slo = Udma_app.Slo
module Kv = Udma_app.Kv
module Halo = Udma_app.Halo
module Rpc = Udma_app.Rpc
open Experiment

(* ------------------------------------------------------------------ *)
(* E16: application workloads over the UDMA fabric (lib/app)           *)
(* ------------------------------------------------------------------ *)

let app_default_loads = [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.2 ]

(* the halo load axis is a work *share* (send cycles / iteration), so
   it cannot exceed 1 *)
let halo_default_loads = [ 0.2; 0.4; 0.6; 0.8; 1.0 ]

(* Pair each load with its config and check them all: a config the
   application rejects raises Sweep.Invalid_config (exit 2 on the
   command line, as for a traffic sweep). The E16 sweeps below are
   staged on it: [report_kv ... cfg] checks its configs and returns the
   run, so E16 can reject any flag before any application calibrates.
   The run gives each load's result, every engine on one probe. *)
let app_sweep validate (run : ?probe:(Udma_sim.Engine.t -> unit) -> _) ~loads config =
  let configs = List.map (fun load -> (load, config load)) loads in
  List.iter
    (fun (_, c) ->
      Result.iter_error (fun msg -> raise (Sweep.Invalid_config msg)) (validate c))
    configs;
  fun () ->
    let p = probe () in
    (p, List.map (fun (load, c) -> (load, run ~probe:(watch p) c)) configs)

(* the SLO and its knee as meta cells: the knee is the load of the first
   sustained violation, or "none" when the whole sweep holds the SLO *)
let app_slo ?slo ~loads points =
  [
    ("slo", vf (Option.value slo ~default:App_slo.default_slo));
    ( "slo_knee",
      v_opt (fun i -> vf (List.nth loads i)) "none" (App_slo.detect_knee ?slo points) );
  ]

let app_stat_cells (s : App_slo.stats) =
  [
    ("n", vi s.App_slo.count);
    ("p50", vi s.App_slo.p50);
    ("p95", vi s.App_slo.p95);
    ("p99", vi s.App_slo.p99);
    ("p999", vi s.App_slo.p999);
  ]

(* E16's applications: each model's own defaults, with a 200k-cycle
   RPC window. The VC-contrast table writes every KV op into a 50 %
   hotspot shard on link-bound wires (the E13 regime) at load 0.7. *)
let e16_kv = Kv.default_config
let e16_halo = Halo.default_config
let e16_rpc = { Rpc.default_config with window_cycles = 200_000 }

let e16_kv_vcs =
  { Kv.default_config with
    fabric = { Fabric.default_config with link_per_word = 2 };
    write_pct = 100; hot_pct = 50; load = 0.7 }

(* One row per load: request count, end-to-end percentiles plus the
   cold (non-hot-shard) p99, throughput, credit stalls and the drain
   check; the SLO knee lands in the meta. *)
let report_kv ?slo ~loads (cfg : Kv.config) =
  let sweep = app_sweep Kv.validate Kv.run ~loads (fun load -> { cfg with load }) in
  fun () ->
  let p, results = sweep () in
  let send_cycles = List.fold_left (fun _ (_, r) -> r.Kv.send_cycles) 0 results in
  Report.make ~id:"e16_kv"
    ~title:
      (Printf.sprintf
         "E16: sharded KV store, %d shards on a %d-node mesh — tail latency \
          vs offered load (zero-copy reads via deliberate update)"
         cfg.shards cfg.fabric.nodes)
    ~meta:
      ([
        ("nodes", vi cfg.fabric.nodes);
        ("shards", vi cfg.shards);
        ("clients_per_node", vi cfg.clients_per_node);
        ("value_bytes", vi cfg.value_bytes);
        ("write_pct", vi cfg.write_pct);
        ("hot_pct", vi cfg.hot_pct);
        ("vcs", vi cfg.fabric.vc_count);
        ("link_per_word", vi cfg.fabric.link_per_word);
        ("send_cycles", vi send_cycles);
        ("window_cycles", vi cfg.window_cycles);
      ]
      @ app_slo ?slo ~loads (List.map (fun (l, r) -> (l, r.Kv.stats)) results)
      @ [ ("chaos", vb cfg.chaos_links); ("seed", vi cfg.fabric.seed) ])
    ~columns:
      [
        ("load", "load");
        ("n", "reqs");
        ("p50", "p50");
        ("p95", "p95");
        ("p99", "p99");
        ("p999", "p999");
        ("cold_p99", "cold p99");
        ("tput", "req/node/kcyc");
        ("credit_stalls", "stalls");
        ("drained", "drained");
      ]
    ~breakdown:(breakdown p)
    (List.map
       (fun (load, r) ->
         (("load", vf load) :: app_stat_cells r.Kv.stats)
         @ [
             ("cold_p99", vi r.Kv.cold_stats.App_slo.p99);
             ("tput", vf r.Kv.throughput_per_kcycle);
             ("credit_stalls", vi r.Kv.credit_stalls);
             ("drained", vb r.Kv.drained);
           ])
       results)

(* The E13 head-of-line regime seen from the application: write-heavy
   traffic into a 50 % hotspot shard makes the big (value-carrying)
   transfers converge on the hot node's entry links, so extra VCs let
   cold-shard requests backfill the shared wires — the p99 drop is the
   app-level payoff of PR 5's flow control. *)
let report_kv_vcs ~vc_counts (cfg : Kv.config) =
  (* the table keeps its own shard count whatever the mesh size *)
  let validate c =
    Result.map_error
      (Printf.sprintf "VC-contrast table (%d KV shards): %s" cfg.shards)
      (Kv.validate c)
  in
  let sweep =
    app_sweep validate Kv.run ~loads:vc_counts (fun vc_count ->
        { cfg with fabric = { cfg.fabric with vc_count } })
  in
  fun () ->
  let p, results = sweep () in
  let rows =
    List.map
      (fun (vcs, r) ->
        (("vcs", vi vcs) :: app_stat_cells r.Kv.stats)
        @ [
            ("cold_p99", vi r.Kv.cold_stats.App_slo.p99);
            ("credit_stalls", vi r.Kv.credit_stalls);
            ("drained", vb r.Kv.drained);
          ])
      results
  in
  Report.make ~id:"e16_kv_vcs"
    ~title:
      (Printf.sprintf
         "E16: KV hotspot shard (%d%% writes to shard 0) at load %.2f — \
          virtual channels vs request tail latency"
         cfg.hot_pct cfg.load)
    ~meta:
      [
        ("nodes", vi cfg.fabric.nodes);
        ("value_bytes", vi cfg.value_bytes);
        ("write_pct", vi cfg.write_pct);
        ("hot_pct", vi cfg.hot_pct);
        ("link_per_word", vi cfg.fabric.link_per_word);
        ("load", vf cfg.load);
        ("window_cycles", vi cfg.window_cycles);
        ("seed", vi cfg.fabric.seed);
      ]
    ~columns:
      [
        ("vcs", "VCs");
        ("n", "reqs");
        ("p50", "p50");
        ("p95", "p95");
        ("p99", "p99");
        ("p999", "p999");
        ("cold_p99", "cold p99");
        ("credit_stalls", "stalls");
        ("drained", "drained");
      ]
    ~breakdown:(breakdown p) rows

(* One row per send-work share: per-(node, iteration) barrier-latency
   percentiles, the derived compute budget, makespan and the drain
   check; the calibrated strided (east/west) and contiguous send costs
   land in the meta. *)
let report_halo ?slo ~loads (cfg : Halo.config) =
  let sweep =
    app_sweep Halo.validate Halo.run ~loads (fun load -> { cfg with Halo.load })
  in
  fun () ->
  let p, results = sweep () in
  let strided, contig =
    List.fold_left
      (fun _ (_, r) -> (r.Halo.strided_send_cycles, r.Halo.contiguous_send_cycles))
      (0, 0) results
  in
  (* the compute budget shrinks as the load (send-work share) grows, so
     raw barrier times are not comparable across loads; the SLO knee is
     detected on the exchange *overhead* — barrier time minus the
     compute floor — which isolates what the fabric adds *)
  let overhead (r : Halo.result) =
    let c = r.Halo.compute_cycles in
    let s = r.Halo.stats in
    {
      s with
      App_slo.mean = s.App_slo.mean -. float_of_int c;
      p50 = s.App_slo.p50 - c;
      p95 = s.App_slo.p95 - c;
      p99 = s.App_slo.p99 - c;
      p999 = s.App_slo.p999 - c;
      max = s.App_slo.max - c;
    }
  in
  Report.make ~id:"e16_halo"
    ~title:
      (Printf.sprintf
         "E16: halo exchange, %dx%d-byte tiles on a %d-node mesh — barrier \
          latency vs send-work share (east/west halos strided)"
         cfg.tile_rows cfg.row_bytes cfg.fabric.nodes)
    ~meta:
      ([
        ("nodes", vi cfg.fabric.nodes);
        ("tile_rows", vi cfg.tile_rows);
        ("row_bytes", vi cfg.row_bytes);
        ("halo_cols", vi cfg.halo_cols);
        ("iterations", vi cfg.iterations);
        ("strided_send_cycles", vi strided);
        ("contiguous_send_cycles", vi contig);
      ]
      @ app_slo ?slo ~loads (List.map (fun (l, r) -> (l, overhead r)) results)
      @ [ ("seed", vi cfg.fabric.seed) ])
    ~columns:
      [
        ("load", "load");
        ("compute", "compute");
        ("n", "samples");
        ("p50", "p50");
        ("p95", "p95");
        ("p99", "p99");
        ("p999", "p999");
        ("makespan", "makespan");
        ("credit_stalls", "stalls");
        ("drained", "drained");
      ]
    ~breakdown:(breakdown p)
    (List.map
       (fun (load, r) ->
         [ ("load", vf load); ("compute", vi r.Halo.compute_cycles) ]
         @ app_stat_cells r.Halo.stats
         @ [
             ("makespan", vi r.Halo.makespan_cycles);
             ("credit_stalls", vi r.Halo.credit_stalls);
             ("drained", vb r.Halo.drained);
           ])
       results)

(* One row per target server utilisation: arrival-to-reply percentiles
   (backlog wait included), burst count, completed vs offered
   throughput and the drain check; the SLO knee lands in the meta. *)
let report_rpc ?slo ~loads (cfg : Rpc.config) =
  let sweep =
    app_sweep Rpc.validate Rpc.run ~loads (fun load -> { cfg with Rpc.load })
  in
  fun () ->
  let p, results = sweep () in
  let send_cycles = List.fold_left (fun _ (_, r) -> r.Rpc.send_cycles) 0 results in
  Report.make ~id:"e16_rpc"
    ~title:
      (Printf.sprintf
         "E16: bursty RPC service (bursts of %d, pool %d) on a %d-node mesh \
          — arrival-to-reply tail latency vs offered server load"
         cfg.burst cfg.pool cfg.fabric.nodes)
    ~meta:
      ([
        ("nodes", vi cfg.fabric.nodes);
        ("resp_bytes", vi cfg.resp_bytes);
        ("server_cycles", vi cfg.server_cycles);
        ("burst", vi cfg.burst);
        ("pool", vi cfg.pool);
        ("send_cycles", vi send_cycles);
        ("window_cycles", vi cfg.window_cycles);
      ]
      @ app_slo ?slo ~loads (List.map (fun (l, r) -> (l, r.Rpc.stats)) results)
      @ [ ("seed", vi cfg.fabric.seed) ])
    ~columns:
      [
        ("load", "load");
        ("n", "reqs");
        ("bursts", "bursts");
        ("p50", "p50");
        ("p95", "p95");
        ("p99", "p99");
        ("p999", "p999");
        ("tput", "req/kcyc");
        ("offered", "offered/kcyc");
        ("drained", "drained");
      ]
    ~breakdown:(breakdown p)
    (List.map
       (fun (load, r) ->
         (("load", vf load) :: app_stat_cells r.Rpc.stats)
         @ [
             ("bursts", vi r.Rpc.bursts);
             ("tput", vf r.Rpc.throughput_per_kcycle);
             ("offered", vf r.Rpc.offered_per_kcycle);
             ("drained", vb r.Rpc.drained);
           ])
       results)

let e16 =
  {
    exp_name = "apps";
    exp_alias = "e16";
    exp_doc =
      "E16: application workloads — sharded KV, halo exchange and bursty \
       RPC tail latency vs offered load over the user-level DMA fabric.";
    exp_run =
      Param.(
        (* KV-only flags leave halo and RPC alone *)
        let+ app =
          v "app"
            (Option (Enum [ ("kv", `Kv); ("halo", `Halo); ("rpc", `Rpc) ]))
            ~docv:"APP"
            ~doc:
              "Run one application: $(b,kv) (sharded key-value store), \
               $(b,halo) (halo-exchange collective) or $(b,rpc) (bursty \
               request-response service). Absent: all three, plus the KV \
               VC-contrast table in a full run."
            None
        and+ nodes =
          v "nodes" Int ~docv:"N"
            ~doc:
              "Mesh size, 2..64, filling complete rows of the squarest \
               covering mesh (4, 6, 9, 12, 16, ...)."
            e16_kv.fabric.nodes
        and+ shards =
          v "shards" (Option Int) ~docv:"N"
            ~doc:"KV server shards, on nodes 0..N-1 (absent: one per node)."
            None
        and+ value_bytes =
          v "value-bytes" Int ~docv:"BYTES"
            ~doc:
              "KV value size; a 4-byte multiple (requests must still fit one \
               page)."
            e16_kv.value_bytes
        and+ slo =
          v "slo" (Option Float) ~docv:"MULT"
            ~check:(function
              | Some m when not (m > 0.0) -> Some "must be > 0" | _ -> None)
            ~doc:
              "SLO multiple: the knee is the first sustained load whose p99 \
               exceeds MULT times the lightest load's p50 (absent: 5.0)."
            None
        and+ loads =
          v "loads" (Option (List Float)) ~docv:"L,..."
            ~doc:
              "Offered loads to sweep (halo caps at 1.0; applied to the halo \
               sweep only with an explicit $(b,--app) halo)."
            None
        and+ vcs =
          v "vcs" Int ~docv:"N"
            ~doc:"Virtual channels per directed mesh link for the KV sweep, 1..4."
            e16_kv.fabric.vc_count
        and+ hot_pct =
          v "hot-pct" Int ~docv:"PCT"
            ~doc:"Share of KV key draws pinned to shard 0 (the hotspot)."
            e16_kv.hot_pct
        and+ write_pct =
          v "write-pct" Int ~docv:"PCT" ~doc:"Share of KV ops that write."
            e16_kv.write_pct
        and+ link_per_word =
          v "link-per-word" Int ~docv:"CYCLES"
            ~doc:
              "Router cycles per 4-byte word on a mesh link (>= 2 puts the \
               bottleneck on the wires, the VC regime)."
            e16_kv.fabric.link_per_word
        and+ chaos =
          v "chaos" Flag
            ~doc:
              "Run the KV store under a seeded link kill/slow/heal storm (the \
               mesh M_link_fault action); the closed loop must still drain."
            e16_kv.chaos_links
        in
        fun ~quick ~seed ->
          let on_mesh (f : Fabric.config) = { f with nodes; seed } in
          let kv, halo, rpc =
            if quick then
              ( { e16_kv with window_cycles = 30_000 },
                { e16_halo with iterations = 12 },
                { e16_rpc with window_cycles = 100_000 } )
            else (e16_kv, e16_halo, e16_rpc)
          in
          let sweep =
            Option.value loads
              ~default:(if quick then [ 0.3; 0.8 ] else app_default_loads)
          in
          let kv () =
            report_kv ?slo ~loads:sweep
              { kv with
                fabric = { (on_mesh kv.fabric) with vc_count = vcs; link_per_word };
                shards = Option.value shards ~default:nodes;
                value_bytes; write_pct; hot_pct; chaos_links = chaos }
          in
          let halo () =
            let loads =
              match (app, loads) with
              | Some `Halo, Some l -> l
              | _ -> if quick then [ 0.5 ] else halo_default_loads
            in
            report_halo ?slo ~loads { halo with fabric = on_mesh halo.fabric }
          in
          let rpc () =
            report_rpc ?slo ~loads:sweep { rpc with fabric = on_mesh rpc.fabric }
          in
          let kv_vcs () =
            report_kv_vcs ~vc_counts:[ 1; 4 ]
              { e16_kv_vcs with fabric = on_mesh e16_kv_vcs.fabric }
          in
          (* every selected sweep checks its configs before any runs *)
          let sweeps =
            match app with
            | Some `Kv -> [ kv () ]
            | Some `Halo -> [ halo () ]
            | Some `Rpc -> [ rpc () ]
            | None -> [ kv (); halo (); rpc () ] @ if quick then [] else [ kv_vcs () ]
          in
          List.map (fun run -> run ()) sweeps);
    exp_anchors =
      [
        anchor "e16.kv_p99@0.8" "e16_kv" (Report.Row [ ("load", "0.8") ]) "p99";
        anchor "e16.rpc_p99@0.8" "e16_rpc" (Report.Row [ ("load", "0.8") ]) "p99";
      ];
  }
