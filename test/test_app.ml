(* Unit + property tests for the application workload suite (lib/app,
   E16): SLO statistics and knee detection, the shared fabric (service
   model, zero-copy delivery, chaos drain), and the three apps — KV,
   halo exchange, bursty RPC — including determinism and the VC
   head-of-line win at the hotspot point. *)

module Slo = Udma_app.Slo
module Fabric = Udma_traffic.Fabric
module Kv = Udma_app.Kv
module Halo = Udma_app.Halo
module Rpc = Udma_app.Rpc

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Slo: percentiles and stats ---------- *)

let test_slo_percentile () =
  (* Slo.stats_of reads its percentiles through Metrics.nearest_rank *)
  let percentile = Udma_obs.Metrics.nearest_rank in
  checki "empty sample" 0 (percentile [||] 50.0);
  checki "singleton p50" 7 (percentile [| 7 |] 50.0);
  checki "singleton p999" 7 (percentile [| 7 |] 99.9);
  let s = [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |] in
  checki "p50 of 1..10" 5 (percentile s 50.0);
  checki "p90 of 1..10" 9 (percentile s 90.0);
  checki "p99 of 1..10" 10 (percentile s 99.0);
  checki "p100 of 1..10" 10 (percentile s 100.0)

let test_slo_stats () =
  let st = Slo.stats_of [| 30; 10; 20 |] in
  checki "count" 3 st.Slo.count;
  checki "p50" 20 st.Slo.p50;
  checki "max" 30 st.Slo.max;
  checki "p999 coarsens to max on small samples" 30 st.Slo.p999;
  Alcotest.check (Alcotest.float 1e-9) "mean" 20.0 st.Slo.mean;
  checki "empty stats count" 0 Slo.empty_stats.Slo.count

let st_of ~p50 ~p99 =
  { Slo.empty_stats with Slo.count = 100; p50; p99 }

let test_slo_knee () =
  (* baseline p50 = 100; slo 5.0 -> violation once p99 > 500 *)
  let pts v =
    List.mapi (fun i p99 -> (0.2 *. float_of_int (i + 1), st_of ~p50:100 ~p99)) v
  in
  checkb "no violation" true
    (Slo.detect_knee ~slo:5.0 (pts [ 120; 200; 400; 500 ]) = None);
  checkb "first sustained violation" true
    (Slo.detect_knee ~slo:5.0 (pts [ 120; 200; 501; 900 ]) = Some 2);
  checkb "a dip disqualifies the earlier candidate" true
    (Slo.detect_knee ~slo:5.0 (pts [ 120; 600; 400; 900 ]) = Some 3);
  checkb "even the lightest point can violate" true
    (Slo.detect_knee ~slo:5.0 (pts [ 501; 600; 700 ]) = Some 0);
  checkb "empty sweep" true (Slo.detect_knee ~slo:5.0 [] = None);
  checkb "no-sample baseline anchors nothing" true
    (Slo.detect_knee ~slo:5.0
       [ (0.2, Slo.empty_stats); (0.4, st_of ~p50:1 ~p99:99999) ]
    = None)

(* ---------- Fabric: validation, service model, zero-copy ---------- *)

let test_fabric_validation () =
  let bad f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () ->
      ignore
        (Fabric.create { Fabric.default_config with Fabric.nodes = 3 }
           ~pairs:[ (0, 1) ]));
  bad (fun () ->
      ignore
        (Fabric.create { Fabric.default_config with Fabric.vc_count = 5 }
           ~pairs:[ (0, 1) ]));
  bad (fun () -> ignore (Fabric.create Fabric.default_config ~pairs:[]));
  bad (fun () -> ignore (Fabric.create Fabric.default_config ~pairs:[ (2, 2) ]));
  let fab = Fabric.create Fabric.default_config ~pairs:[ (0, 1) ] in
  bad (fun () -> ignore (Fabric.calibrate_send fab ~nbytes:6));
  bad (fun () -> ignore (Fabric.calibrate_send fab ~nbytes:8192));
  bad (fun () -> Fabric.post fab ~src:1 ~dst:0 ~nbytes:64 ~cost:10 ())

let test_fabric_delivery_zero_copy () =
  let fab = Fabric.create Fabric.default_config ~pairs:[ (0, 5); (5, 0) ] in
  let cost = Fabric.calibrate_send fab ~nbytes:256 in
  checkb "calibrated cost positive" true (cost > 0);
  let delivered_at = ref (-1) in
  Fabric.post fab ~src:0 ~dst:5 ~nbytes:256 ~cost
    ~on_deliver:(fun now -> delivered_at := now)
    ();
  Fabric.run_until_idle fab;
  checkb "delivery strictly after initiation cost" true (!delivered_at > cost);
  checki "launched" 1 (Fabric.launched fab);
  checki "delivered" 1 (Fabric.delivered fab);
  (* the receive buffer holds the deterministic fill: what a zero-copy
     reader sees with cached loads, no receive-side copy in between *)
  Alcotest.check Alcotest.bytes "deposited payload readable in place"
    (Fabric.payload fab ~nbytes:256)
    (Fabric.read_payload fab ~src:0 ~dst:5 ~len:256)

let test_fabric_deterministic () =
  let observe () =
    let fab =
      Fabric.create
        { Fabric.default_config with Fabric.seed = 7 }
        ~pairs:[ (0, 3); (3, 0); (0, 12) ]
    in
    let cost = Fabric.calibrate_send fab ~nbytes:512 in
    let times = ref [] in
    for i = 0 to 9 do
      Fabric.post fab ~src:0 ~dst:(if i mod 2 = 0 then 3 else 12) ~nbytes:512
        ~cost
        ~on_deliver:(fun now -> times := now :: !times)
        ()
    done;
    Fabric.run_until_idle fab;
    (cost, !times)
  in
  checkb "same seed, same schedule" true (observe () = observe ())

let test_fabric_chaos_drains () =
  let fab =
    Fabric.create
      { Fabric.default_config with Fabric.rx_credits = Some 4 }
      ~pairs:[ (0, 15); (15, 0); (3, 12) ]
  in
  let cost = Fabric.calibrate_send fab ~nbytes:1024 in
  Fabric.chaos_links fab ~period:500 ~until:20_000 ();
  for i = 0 to 59 do
    let src, dst =
      match i mod 3 with 0 -> (0, 15) | 1 -> (15, 0) | _ -> (3, 12)
    in
    Udma_sim.Engine.schedule (Fabric.engine fab) ~delay:(i * 250) (fun _ ->
        Fabric.post fab ~src ~dst ~nbytes:1024 ~cost ())
  done;
  Fabric.run_until_idle fab;
  checkb "chaos events applied" true (Fabric.faults_injected fab > 0);
  checki "every message still delivered" (Fabric.launched fab)
    (Fabric.delivered fab);
  checki "sixty launched" 60 (Fabric.launched fab)

(* ---------- the three apps: drain, determinism, the VC win ---------- *)

let small_fabric = { Fabric.default_config with Fabric.nodes = 4 }

let test_kv_smoke () =
  let cfg =
    { Kv.default_config with
      Kv.fabric = small_fabric;
      shards = 4;
      clients_per_node = 2;
      window_cycles = 15_000;
    }
  in
  let r = Kv.run cfg in
  checkb "drained" true r.Kv.drained;
  checki "all issued completed" r.Kv.issued r.Kv.completed;
  checki "ops partition into reads and writes" r.Kv.issued
    (r.Kv.reads + r.Kv.writes);
  checki "a sample per completed op" r.Kv.completed r.Kv.stats.Slo.count;
  checkb "throughput positive" true (r.Kv.throughput_per_kcycle > 0.0);
  checkb "deterministic" true (Kv.run cfg = r)

let test_kv_chaos_smoke () =
  let r =
    Kv.run
      { Kv.default_config with
        Kv.fabric = small_fabric;
        shards = 4;
        clients_per_node = 2;
        window_cycles = 15_000;
        chaos_links = true;
      }
  in
  checkb "drained under link chaos" true r.Kv.drained;
  checkb "chaos actually fired" true (r.Kv.chaos_events > 0)

let test_halo_smoke () =
  let cfg =
    { Halo.default_config with
      Halo.fabric = small_fabric;
      iterations = 8;
      warmup_iters = 2;
    }
  in
  let r = Halo.run cfg in
  checkb "drained" true r.Halo.drained;
  checki "measured iterations" 6 r.Halo.iterations;
  checki "a sample per node per measured iteration" (4 * 6)
    r.Halo.stats.Slo.count;
  checkb "strided dearer than contiguous (three-reference path)" true
    (r.Halo.strided_send_cycles > r.Halo.contiguous_send_cycles);
  checkb "deterministic" true (Halo.run cfg = r)

let test_rpc_smoke () =
  let cfg =
    { Rpc.default_config with
      Rpc.fabric = small_fabric;
      window_cycles = 30_000;
    }
  in
  let r = Rpc.run cfg in
  checkb "drained" true r.Rpc.drained;
  checki "all issued completed" r.Rpc.issued r.Rpc.completed;
  checkb "bursts generated" true (r.Rpc.bursts > 0);
  checkb "deterministic" true (Rpc.run cfg = r)

let test_kv_vcs_improve_hotspot_tail () =
  (* the E16 headline: write-heavy hotspot traffic on thin links —
     4 VCs must beat 1 VC on p99 (head-of-line blocking released) *)
  let run vcs =
    Kv.run
      { Kv.default_config with
        Kv.fabric =
          { Fabric.default_config with
            Fabric.vc_count = vcs;
            link_per_word = 2;
          };
        write_pct = 100;
        hot_pct = 50;
        load = 0.7;
      }
  in
  let r1 = run 1 and r4 = run 4 in
  checkb "both drained" true (r1.Kv.drained && r4.Kv.drained);
  checkb
    (Printf.sprintf "p99 improves with 4 VCs (%d -> %d)" r1.Kv.stats.Slo.p99
       r4.Kv.stats.Slo.p99)
    true
    (r4.Kv.stats.Slo.p99 < r1.Kv.stats.Slo.p99)

let () =
  Alcotest.run "udma_app"
    [
      ( "slo",
        [
          Alcotest.test_case "percentile" `Quick test_slo_percentile;
          Alcotest.test_case "stats" `Quick test_slo_stats;
          Alcotest.test_case "knee detection" `Quick test_slo_knee;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "config validation" `Quick test_fabric_validation;
          Alcotest.test_case "delivery is zero-copy" `Quick
            test_fabric_delivery_zero_copy;
          Alcotest.test_case "deterministic" `Quick test_fabric_deterministic;
          Alcotest.test_case "chaos storm drains" `Quick
            test_fabric_chaos_drains;
        ] );
      ( "apps",
        [
          Alcotest.test_case "kv smoke" `Quick test_kv_smoke;
          Alcotest.test_case "kv chaos smoke" `Quick test_kv_chaos_smoke;
          Alcotest.test_case "halo smoke" `Quick test_halo_smoke;
          Alcotest.test_case "rpc smoke" `Quick test_rpc_smoke;
          Alcotest.test_case "4 VCs beat 1 VC at the hotspot" `Quick
            test_kv_vcs_improve_hotspot_tail;
        ] );
    ]
