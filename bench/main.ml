(* The benchmark binary regenerates every table and figure of the
   paper's evaluation (the experiment index in DESIGN.md §4). By default
   it prints the paper-style series and then runs one Bechamel
   micro-benchmark per experiment measuring the wall-clock cost of the
   corresponding simulation harness. With --json it instead writes the
   whole run as one udma-bench/1 document (BENCH_udma.json), and with
   --check FILE it compares every anchor declared in the experiment
   registry (Runner.anchors) against a previously committed baseline,
   failing on >±2 % drift — that is the CI regression gate. The `sim`
   subcommand measures raw sharded-engine throughput and, with
   --check, holds its deterministic counters exactly to BENCH_sim.json. *)

module Runner = Udma_workloads.Runner
module Report = Udma_obs.Report
module Json = Udma_obs.Json

open Bechamel
open Toolkit

(* Small parameterisations so each Bechamel sample is a fraction of a
   second; the printed paper series above use the full parameters. *)
let bech_tests =
  let t name f = Test.make ~name (Staged.stage (fun () -> ignore (f ()))) in
  [
    t "e1_figure8_point" (Runner.report_figure8 ~sizes:[ 512; 4096 ] ~messages:4);
    t "e2_initiation" Runner.report_costs;
    t "e3_hippi" (Runner.report_hippi ~blocks:[ 1024; 65536 ]);
    t "e4_pio_crossover" (Runner.report_crossover ~sizes:[ 64; 1024 ] ~trials:2);
    t "e5_queueing" (Runner.report_queueing ~total_sizes:[ 16384 ] ~depths:[ 4 ]);
    t "e6_atomicity" (Runner.report_atomicity ~probs_pct:[ 10 ] ~transfers:20);
    t "e7_pinning" Runner.report_pinning;
    t "e8_proxy_fault" Runner.report_proxy_faults;
    t "e9_i3_policy" (Runner.report_i3 ~transfers:8 ~pages:2);
    t "e10_updates" Runner.report_updates;
    t "e11_traffic_point"
      (Runner.report_saturation ~loads:[ 0.5 ] ~nodes:4 ~warmup_cycles:500
         ~window_cycles:4_000);
    t "e12_adaptive_point"
      (Runner.report_adaptive ~loads:[ 0.5 ] ~nodes:4
         ~patterns:[ Udma_traffic.Pattern.Transpose ] ~warmup_cycles:500
         ~window_cycles:4_000);
    t "e13_hotspot_point"
      (Runner.report_hotspot ~loads:[ 0.5 ] ~nodes:4 ~pcts:[ 50 ]
         ~vc_counts:[ 2 ] ~warmup_cycles:500 ~window_cycles:4_000);
    t "e14_tenants_point" (Runner.report_tenants ~tenant_counts:[ 64 ] ~ops:2_000);
    t "e15_shapes_point"
      (Runner.report_shapes ~cases:[ Runner.Shape_contig; Runner.Shape_sg 16 ]);
    t "e16_apps_point"
      (Runner.report_kv ~loads:[ 0.5 ] ~nodes:4 ~window_cycles:10_000);
    t "e18_flit_point"
      (Runner.report_flit ~nodes:4 ~vc_counts:[ 2 ] ~warmup_cycles:500
         ~window_cycles:4_000);
  ]

let run_bechamel () =
  Printf.printf "\n=== Bechamel micro-benchmarks (host wall-clock per harness run) ===\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"udma" bech_tests)
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-28s %16s\n" "harness" "ns/run";
  List.iter
    (fun (name, ns) -> Printf.printf "%-28s %16.0f\n" name ns)
    rows

(* ------------------------------------------------------------------ *)
(* anchor gates                                                        *)
(* ------------------------------------------------------------------ *)

(* Both gates read the baseline file and the fresh run the same way:
   the run is serialized as the udma-bench/1 document it would be
   written as, re-parsed, and every anchor is extracted from both
   documents by Report.anchor_value. The baseline is read before the
   run: a file that cannot be read or parsed exits 2, drift exits 1. *)
let read_baseline ~label path =
  match Json.of_file path with
  | Ok doc -> (path, doc)
  | Error msg ->
      Printf.eprintf "%s: %s\n" label msg;
      exit 2

let gate ~label ~tolerance anchors (path, baseline) reports =
  let current =
    match Json.parse (Json.to_string (Report.bench_json reports)) with
    | Ok doc -> doc
    | Error msg -> failwith ("bench_json does not reparse: " ^ msg)
  in
  Printf.printf "\n=== %s vs %s (%s) ===\n" label path
    (if tolerance = 0.0 then "exact"
     else Printf.sprintf "tolerance +/-%.0f%%" (100.0 *. tolerance));
  match Report.check ~tolerance anchors ~baseline current with
  | Ok lines ->
      List.iter print_endline lines;
      Printf.printf "%s passed.\n" label
  | Error lines ->
      List.iter print_endline lines;
      Printf.printf
        "%s FAILED: regenerate the baseline (see EXPERIMENTS.md) if the \
         change is intended.\n"
        label;
      exit 1

(* ------------------------------------------------------------------ *)
(* bench sim: raw sharded-engine throughput (BENCH_sim.json)           *)
(* ------------------------------------------------------------------ *)

(* One fixed open-loop workload per domain count. Two kinds of numbers
   come out: the kernel counters and the traffic result, which are
   deterministic (identical for every domain count and every run on
   every host), and the wall-clock events/sec, which is whatever the
   host gives. The --check gate therefore compares the deterministic
   fields EXACTLY (0.0%% tolerance — this is the engine-determinism
   regression gate) and prints the rates purely for information. *)

module Shard_gen = Udma_traffic.Shard_gen
module Load_gen = Udma_traffic.Load_gen

let sim_deterministic_fields =
  [ "events"; "windows"; "cross_posts"; "shards"; "injected"; "delivered";
    "mean_latency"; "p99" ]

let sim_report ~nodes ~load ~window ~seed ~domains_list =
  let send_cycles = Load_gen.calibrate ~msg_bytes:256 () in
  let cfg =
    {
      Load_gen.default_config with
      Load_gen.nodes;
      window_cycles = window;
      arrival =
        Udma_traffic.Arrival.Poisson
          { per_kcycle = load *. 1000.0 /. float_of_int send_cycles };
      rx_credits = None;
      seed;
    }
  in
  let rows =
    List.map
      (fun domains ->
        let t0 = Unix.gettimeofday () in
        let result, ks = Shard_gen.run_stats ~domains ~send_cycles cfg in
        let wall = Unix.gettimeofday () -. t0 in
        let evps =
          if wall > 0.0 then float_of_int ks.Shard_gen.events /. wall else 0.0
        in
        [
          ("domains", Report.Int domains);
          ("events", Report.Int ks.Shard_gen.events);
          ("windows", Report.Int ks.Shard_gen.windows);
          ("cross_posts", Report.Int ks.Shard_gen.cross_posts);
          ("shards", Report.Int ks.Shard_gen.shards);
          ("injected", Report.Int result.Load_gen.injected);
          ("delivered", Report.Int result.Load_gen.delivered);
          ("mean_latency", Report.Float result.Load_gen.mean_latency);
          ("p99", Report.Int result.Load_gen.p99_latency);
          ("wall_ms", Report.Float (wall *. 1000.0));
          ("events_per_sec", Report.Float evps);
        ])
      domains_list
  in
  Report.make ~id:"sim_throughput"
    ~title:
      (Printf.sprintf
         "bench sim: sharded engine, %d-node mesh at load %.1f, %d-cycle \
          window" nodes load window)
    ~meta:
      [
        ("nodes", Report.Int nodes);
        ("load", Report.Float load);
        ("window_cycles", Report.Int window);
        ("send_cycles", Report.Int send_cycles);
        ("seed", Report.Int seed);
        ("host_cores", Report.Int (Domain.recommended_domain_count ()));
      ]
    ~columns:
      [
        ("domains", "domains");
        ("events", "events");
        ("windows", "windows");
        ("cross_posts", "x-posts");
        ("delivered", "delivered");
        ("events_per_sec", "events/s");
      ]
    rows

(* the determinism anchors: every deterministic field of every row *)
let sim_anchors domains_list =
  List.concat_map
    (fun d ->
      List.map
        (fun field ->
          {
            Report.name = Printf.sprintf "sim.%s@domains%d" field d;
            report = "sim_throughput";
            select = Report.Row [ ("domains", string_of_int d) ];
            field;
          })
        sim_deterministic_fields)
    domains_list

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let write_json path doc =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string ~indent:2 doc);
      output_char oc '\n')

let run json out quick seed check =
  let baseline = Option.map (read_baseline ~label:"check") check in
  let reports = Runner.all_reports ~quick ~seed () in
  if json then begin
    let path = Option.value out ~default:"BENCH_udma.json" in
    let doc =
      Report.bench_json
        ~meta:
          [
            ("generator", Report.Str "bench");
            ("quick", Report.Bool quick);
            ("seed", Report.Int seed);
          ]
        reports
    in
    write_json path doc;
    Printf.printf "wrote %s (%d experiments)\n" path (List.length reports)
  end
  else begin
    Printf.printf
      "Reproduction of: Blumrich, Dubnicki, Felten, Li — \"Protected, \
       User-Level DMA for the SHRIMP Network Interface\" (HPCA 1996)\n";
    Printf.printf
      "Every series below corresponds to a table/figure or quantitative \
       claim of the paper; see DESIGN.md section 4 and EXPERIMENTS.md.\n";
    List.iter Report.print reports
  end;
  Option.iter
    (fun b -> gate ~label:"anchor check" ~tolerance:0.02 Runner.anchors b reports)
    baseline;
  (* the wall-clock micro-benchmarks only make sense in the default
     full table mode *)
  if (not json) && (not quick) && check = None then begin
    run_bechamel ();
    Printf.printf "\nDone.\n"
  end

let () =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Write the whole run as one udma-bench/1 JSON document instead \
             of printing tables.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Destination for $(b,--json) output (default BENCH_udma.json, \
             or BENCH_sim.json for $(b,sim)).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Small deterministic parameter set (what CI uses for the \
                committed BENCH_baseline.json).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the randomized experiments and the sim workload.")
  in
  let check ~doc =
    Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE" ~doc)
  in
  let default_term =
    Term.(
      const run $ json $ out $ quick $ seed
      $ check
          ~doc:
            "Diff every anchor declared in the experiment registry between \
             this run and the baseline document $(docv); exit 1 on >±2% \
             drift, 2 if $(docv) cannot be read.")
  in
  let sim_cmd =
    let nodes =
      Arg.(
        value & opt int 256
        & info [ "nodes" ] ~docv:"N"
            ~doc:"Mesh size for the throughput workload (default 256 = 16x16).")
    in
    let load =
      Arg.(
        value & opt float 0.9
        & info [ "load" ] ~docv:"L"
            ~doc:"Offered load as a fraction of per-source capacity.")
    in
    let window =
      Arg.(
        value & opt int 20_000
        & info [ "window" ] ~docv:"CYCLES" ~doc:"Measurement window.")
    in
    let domains_list =
      Arg.(
        value
        & opt (list int) [ 1; 2 ]
        & info [ "domains" ] ~docv:"N,..."
            ~doc:"Worker-domain counts to run, one row each.")
    in
    let sim_run sim_json sim_out nodes load window sim_seed domains_list
        sim_check =
      let baseline =
        Option.map (read_baseline ~label:"sim --check") sim_check
      in
      let report =
        sim_report ~nodes ~load ~window ~seed:sim_seed ~domains_list
      in
      if sim_json then begin
        let path = Option.value sim_out ~default:"BENCH_sim.json" in
        let doc =
          Report.bench_json
            ~meta:
              [
                ("generator", Report.Str "bench sim");
                ("seed", Report.Int sim_seed);
              ]
            [ report ]
        in
        write_json path doc;
        Printf.printf "wrote %s\n" path
      end
      else Report.print report;
      Option.iter
        (fun b ->
          gate ~label:"sim determinism gate" ~tolerance:0.0
            (sim_anchors domains_list) b [ report ])
        baseline
    in
    Cmd.v
      (Cmd.info "sim"
         ~doc:
           "Raw sharded-engine throughput (events/sec) per domain count; \
            deterministic counters are the BENCH_sim.json anchor set.")
      Term.(
        const sim_run $ json $ out $ nodes $ load $ window $ seed $ domains_list
        $ check
            ~doc:
              "Compare the deterministic engine counters of this run against \
               the baseline document $(docv) EXACTLY (the engine-determinism \
               gate); exit 1 on any mismatch, 2 if $(docv) cannot be read. \
               Wall-clock rates are never gated.")
  in
  let info =
    Cmd.info "bench" ~version:"1.0.0"
      ~doc:"Regenerate the paper's evaluation; emit/check JSON reports."
  in
  exit (Cmd.eval (Cmd.group ~default:default_term info [ sim_cmd ]))
