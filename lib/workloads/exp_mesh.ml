module Report = Udma_obs.Report
module Router = Udma_shrimp.Router
module Pattern = Udma_traffic.Pattern
module Load_gen = Udma_traffic.Load_gen
module Sweep = Udma_traffic.Sweep
open Experiment

(* The result at a sweep's heaviest load; E12, E13 and E18 frame their
   meta the same way: the mesh, then [fields], then the run. *)
let heaviest o =
  match List.rev o.Sweep.points with
  | { Sweep.result; _ } :: _ -> result
  | [] -> assert false (* Sweep.over rejects empty loads *)

let mesh_meta (cfg : Load_gen.config) ~send_cycles fields =
  (("nodes", vi cfg.nodes) :: ("width", vi (Router.mesh_width cfg.nodes)) :: fields)
  @ [
      ("send_cycles", vi send_cycles);
      ("warmup_cycles", vi cfg.warmup_cycles);
      ("window_cycles", vi cfg.window_cycles);
      ("seed", vi cfg.seed);
    ]

(* ------------------------------------------------------------------ *)
(* E11: traffic saturation sweep                                       *)
(* ------------------------------------------------------------------ *)

(* E11's mesh: the load generator's own defaults (16 nodes, uniform
   traffic, 256-byte messages, 2k-cycle run-in, 50k-cycle window,
   contention on, one VC, unlimited credits, analytic wire). *)
let e11_mesh = Load_gen.default_config

(* E11: one row per load point of a {!Sweep}, with the detected knee
   flagged in the rows and recorded in the meta as [knee_load] (or
   "none"). Per {!Sweep.use_sharded}, [domains = 1] on a mesh of up to
   64 nodes keeps the legacy single-engine path and its exact report
   bytes; on the sharded path the meta gains [engine]/[domains] fields
   and the report is identical for every [domains] value. [`Flit]
   pins the legacy engine and adds [crossing]/[flit_words] meta
   fields, leaving analytic reports byte-identical to the pre-flit
   runner. *)
let report_saturation ~loads ~domains (cfg : Load_gen.config) =
  let p = probe () in
  let sharded = Sweep.use_sharded ~domains cfg in
  let outcome = Sweep.over ~loads ~probe:(watch p) ~domains cfg in
  Report.make ~id:"e11_saturation"
    ~title:
      (Printf.sprintf
         "E11: latency vs offered load, %d-node mesh, %s traffic%s" cfg.nodes
         (Pattern.to_string cfg.pattern)
         (if cfg.link_contention then "" else " (contention off)"))
    ~meta:
      ([
        ("nodes", vi cfg.nodes);
        ("width", vi (heaviest outcome).Load_gen.width);
        ("pattern", vs (Pattern.to_string cfg.pattern));
        ("msg_bytes", vi cfg.msg_bytes);
        ("send_cycles", vi outcome.Sweep.send_cycles);
        ("warmup_cycles", vi cfg.warmup_cycles);
        ("window_cycles", vi cfg.window_cycles);
        ("link_contention", vb cfg.link_contention);
        ("seed", vi cfg.seed);
        ("knee_load", v_opt vf "none" outcome.Sweep.knee_load);
        ("knee_index", v_opt vi "none" outcome.Sweep.knee_index);
      ]
      (* extend meta only on the sharded path so the legacy report — and
         every committed anchor derived from it — stays byte-identical *)
      @ (if sharded then
           [ ("engine", vs "sharded"); ("domains", vi domains) ]
         else [])
      (* same discipline for the flit crossing: analytic reports are
         byte-identical to the pre-flit runner *)
      @ (if cfg.crossing = `Flit then
           [ ("crossing", vs "flit"); ("flit_words", vi cfg.flit_words) ]
         else [])
    )
    ~columns:
      [
        ("load", "load");
        ("offered_kcyc", "off/kcyc");
        ("delivered_kcyc", "del/kcyc");
        ("mean_latency", "mean cyc");
        ("p95_latency", "p95");
        ("p99_latency", "p99");
        ("link_wait", "link wait");
        ("knee", "knee");
      ]
    ~breakdown:(breakdown p)
    (List.mapi
       (fun i { Sweep.load; result = r } ->
         [
           ("load", vf load);
           ("offered_kcyc", vf r.Load_gen.offered_per_kcycle);
           ("delivered_kcyc", vf r.Load_gen.delivered_per_kcycle);
           ("injected", vi r.Load_gen.injected);
           ("delivered", vi r.Load_gen.delivered);
           ("mean_latency", vf r.Load_gen.mean_latency);
           ("p50_latency", vi r.Load_gen.p50_latency);
           ("p95_latency", vi r.Load_gen.p95_latency);
           ("p99_latency", vi r.Load_gen.p99_latency);
           ("max_latency", vi r.Load_gen.max_latency);
           ("link_wait", vi r.Load_gen.link_wait_cycles);
           ("link_max_depth", vi r.Load_gen.link_max_depth);
           ("knee", vb (outcome.Sweep.knee_index = Some i));
         ])
       outcome.Sweep.points)

let e11 =
  {
    exp_name = "traffic";
    exp_alias = "e11";
    exp_doc =
      "E11: mesh saturation — latency vs offered load under multi-node \
       traffic with link contention.";
    exp_run =
      Param.(
        let+ loads =
          v "loads" (List Float) ~docv:"L,..."
            ~doc:
              "Offered loads to sweep, as fractions of one source's \
               calibrated initiation capacity."
            ~quick:[ 0.2; 0.6; 0.9; 1.1 ] Sweep.default_loads
        and+ nodes =
          v "nodes" Int ~docv:"N"
            ~doc:
              "Mesh size, filling complete rows of the squarest covering \
               mesh (4, 6, 9, 12, 16, ...). The legacy engine covers 2..64; \
               larger meshes (up to 1024) run on the sharded engine (see \
               $(b,--domains))."
            e11_mesh.nodes
        and+ pattern =
          v "pattern"
            (Parsed (Pattern.parse, Pattern.to_string))
            ~docv:"PATTERN"
            ~doc:
              "Spatial pattern: $(b,uniform), $(b,transpose), $(b,neighbor) \
               or $(b,hotspot)[:PCT]."
            e11_mesh.pattern
        and+ msg_bytes =
          v "msg-bytes" Int ~docv:"BYTES"
            ~doc:"Message size; a 4-byte multiple up to 4092 (one packet)."
            e11_mesh.msg_bytes
        and+ window_cycles =
          v "window" Int ~docv:"CYCLES" ~doc:"Measurement window per point."
            ~quick:20_000 e11_mesh.window_cycles
        and+ warmup_cycles =
          v "warmup" Int ~docv:"CYCLES" ~doc:"Run-in before measurement."
            e11_mesh.warmup_cycles
        and+ no_contention =
          v "no-contention" Flag
            ~doc:
              "Disable the router's per-link FIFO model (contention-free \
               latency, the pre-traffic behaviour)."
            (not e11_mesh.link_contention)
        and+ routing =
          v "routing"
            (Enum
               [ ("dimension", `Dimension_order); ("adaptive", `Minimal_adaptive) ])
            ~docv:"POLICY"
            ~doc:
              "Router path policy: $(b,dimension) (X then Y, the default) or \
               $(b,adaptive) (minimal-adaptive: the less-busy productive link \
               at every hop; needs the contention model)."
            e11_mesh.routing
        and+ link_per_word =
          v "link-per-word" Int ~docv:"CYCLES"
            ~doc:
              "Router cycles per 4-byte word on a mesh link. Raising it slows \
               the links relative to the send-initiation cost, moving the \
               bottleneck onto the network (the E12 regime)."
            e11_mesh.link_per_word
        and+ vc_count =
          v "vcs" Int ~docv:"N"
            ~doc:
              "Virtual channels per directed mesh link, 1..4 (1: the \
               single-FIFO model, bit-for-bit). Extra VCs let other flows \
               backfill the wire around a head-of-line-blocked packet."
            e11_mesh.vc_count
        and+ rx_credits =
          v "rx-credits" (Option Int) ~docv:"N"
            ~doc:
              "Deposit slots per (link, VC) receive FIFO (absent: unlimited, \
               the pre-credit model). With finite credits sources stall at \
               the injection gate instead of queueing on the wire."
            e11_mesh.rx_credits
        and+ crossing =
          v "crossing"
            (Enum [ ("analytic", `Analytic); ("flit", `Flit) ])
            ~docv:"MODEL"
            ~doc:
              "Wire model under contention: $(b,analytic) (packet-granularity \
               link reservations — the model every committed anchor was \
               produced on) or $(b,flit) (cycle-accurate wormhole flits \
               through per-(link,VC) input FIFOs; dimension-order only, \
               always on the legacy engine). See also $(b,--flit-words)."
            e11_mesh.crossing
        and+ flit_words =
          v "flit-words" Int ~docv:"N"
            ~doc:"4-byte words per flit in the flit crossing."
            e11_mesh.flit_words
        and+ domains =
          v "domains" Int ~docv:"N"
            ~doc:
              "Worker domains for the sharded per-row simulation engine. 1 on \
               a mesh of up to 64 nodes keeps the legacy single-queue engine \
               (byte-identical reports); any higher value — or a larger mesh \
               — dispatches to the sharded conservative kernel, whose results \
               are identical for every domain count."
            1
        in
        fun ~quick:_ ~seed ->
          [
            report_saturation ~loads ~domains
              { e11_mesh with nodes; pattern; msg_bytes; window_cycles;
                warmup_cycles; link_contention = not no_contention; routing;
                link_per_word; vc_count; rx_credits; crossing; flit_words;
                seed };
          ]);
    exp_anchors =
      [
        anchor "e11.knee_load" "e11_saturation" Report.Meta "knee_load";
        anchor "e11.mean_latency@0.2" "e11_saturation"
          (Report.Row [ ("load", "0.2") ])
          "mean_latency";
      ];
  }
(* E12: the same sweep per pattern under both routing policies. The
   interesting output is the knee shift: minimal-adaptive spreads
   transpose/hotspot flows over both productive directions, so their
   knees move to a strictly higher load while uniform barely moves.

   The mesh deliberately picks a link-bound regime: 2 KB messages
   keep the per-message link occupancy large, and [link_per_word = 2]
   halves the mesh bandwidth relative to the fixed send-initiation
   cost. At the stock [link_per_word = 1] the 4x4 sources saturate
   before any link does (occupancy/initiation ~ 0.26 per flow, and
   transpose concentrates only ~3 flows on its worst link), so both
   policies would knee together at source saturation and the routing
   policy could not matter. One row per pattern: the knee under each
   policy ([knee_dim], [knee_adaptive]), the shift, and the heaviest
   point's head-of-line blocking under each. *)
let e12_mesh =
  { Load_gen.default_config with
    msg_bytes = 2048; window_cycles = 100_000; link_per_word = 2 }

let report_adaptive ?loads ~patterns (cfg : Load_gen.config) =
  let p = probe () in
  let sweep pattern routing =
    Sweep.over ?loads ~probe:(watch p) { cfg with pattern; routing }
  in
  let send_cycles = ref 0 in
  let rows =
    List.map
      (fun pattern ->
        let dim = sweep pattern `Dimension_order in
        let ada = sweep pattern `Minimal_adaptive in
        send_cycles := dim.Sweep.send_cycles;
        [
          ("pattern", vs (Pattern.to_string pattern));
          ("knee_dim", v_opt vf "none" dim.Sweep.knee_load);
          ("knee_adaptive", v_opt vf "none" ada.Sweep.knee_load);
          ( "knee_shift",
            match (dim.Sweep.knee_load, ada.Sweep.knee_load) with
            | Some d, Some a -> vf (a -. d)
            | _ -> vs "n/a" );
          ("wait_dim", vi (heaviest dim).Load_gen.link_wait_cycles);
          ("wait_adaptive", vi (heaviest ada).Load_gen.link_wait_cycles);
        ])
      patterns
  in
  Report.make ~id:"e12_adaptive"
    ~title:
      (Printf.sprintf
         "E12: dimension-order vs minimal-adaptive routing, %d-node mesh \
          (saturation knee per pattern)"
         cfg.nodes)
    ~meta:
      (mesh_meta cfg ~send_cycles:!send_cycles
         [ ("msg_bytes", vi cfg.msg_bytes); ("link_per_word", vi cfg.link_per_word) ])
    ~columns:
      [
        ("pattern", "pattern");
        ("knee_dim", "knee dim");
        ("knee_adaptive", "knee adapt");
        ("knee_shift", "shift");
        ("wait_dim", "wait dim");
        ("wait_adaptive", "wait adapt");
      ]
    ~breakdown:(breakdown p) rows

let e12 =
  {
    exp_name = "adaptive";
    exp_alias = "e12";
    exp_doc =
      "E12: dimension-order vs minimal-adaptive routing — per-pattern \
       saturation knee shift.";
    exp_run =
      Param.const (fun ~quick ~seed ->
          let cfg = { e12_mesh with seed } in
          if quick then
            [
              (* same link-bound regime as the full sweep, on the four
                 loads that bracket both policies' knees with margin *)
              report_adaptive ~loads:[ 0.2; 0.6; 0.8; 1.0 ]
                ~patterns:[ Pattern.Transpose; Pattern.default_hotspot ]
                cfg;
            ]
          else
            [
              report_adaptive
                ~patterns:
                  [ Pattern.Uniform; Pattern.Transpose; Pattern.default_hotspot ]
                cfg;
            ]);
    exp_anchors =
      List.map
        (fun field ->
          anchor ("e12." ^ field ^ "@transpose") "e12_adaptive"
            (Report.Row [ ("pattern", "transpose") ]) field)
        [ "knee_dim"; "knee_adaptive" ];
  }

(* E13: hotspot saturation vs virtual channels. The regime is E12's
   link-bound one (2 KB messages, link_per_word = 2) so the
   bottleneck is the contended links into the hot node, where a single
   FIFO head-of-line blocks every flow sharing a link with the hotspot
   stream. Extra VCs let cold flows backfill the wire around a blocked
   hot packet, so the knee holds (or improves) as the hotspot share
   grows; finite deposit credits turn the residual overload into
   source-side [credit_stalls] instead of unbounded link queues. One
   row per (hotspot share, VC count): the knee and, at the heaviest
   load, the credit stalls and the link-queue ceiling. *)
let e13_mesh = { e12_mesh with rx_credits = Some 8 }

let report_hotspot ?loads ~pcts ~vc_counts (cfg : Load_gen.config) =
  let p = probe () in
  let send_cycles = ref 0 in
  let rows =
    List.concat_map
      (fun pct ->
        List.map
          (fun vcs ->
            let o =
              Sweep.over ?loads ~probe:(watch p)
                { cfg with
                  pattern = Pattern.Hotspot { node = 0; pct }; vc_count = vcs }
            in
            send_cycles := o.Sweep.send_cycles;
            let heaviest = heaviest o in
            [
              ("hot_pct", vi pct);
              ("vcs", vi vcs);
              ("knee", v_opt vf "none" o.Sweep.knee_load);
              ("credit_stalls", vi heaviest.Load_gen.credit_stalls);
              ( "credit_stall_cycles",
                vi heaviest.Load_gen.credit_stall_cycles );
              ("link_max_depth", vi heaviest.Load_gen.link_max_depth);
              ("link_wait", vi heaviest.Load_gen.link_wait_cycles);
            ])
          vc_counts)
      pcts
  in
  Report.make ~id:"e13_hotspot"
    ~title:
      (Printf.sprintf
         "E13: hotspot saturation vs virtual channels, %d-node mesh \
          (knee per hotspot share; stall columns at the heaviest load)"
         cfg.nodes)
    ~meta:
      (mesh_meta cfg ~send_cycles:!send_cycles
         [
           ("msg_bytes", vi cfg.msg_bytes);
           ("link_per_word", vi cfg.link_per_word);
           ("rx_credits", v_opt vi "unlimited" cfg.rx_credits);
         ])
    ~columns:
      [
        ("hot_pct", "hot %");
        ("vcs", "VCs");
        ("knee", "knee");
        ("credit_stalls", "stalls");
        ("credit_stall_cycles", "stall cyc");
        ("link_max_depth", "max depth");
        ("link_wait", "link wait");
      ]
    ~breakdown:(breakdown p) rows

let e13 =
  {
    exp_name = "hotspot";
    exp_alias = "e13";
    exp_doc =
      "E13: hotspot saturation vs virtual channels — per-share knee at \
       1-4 VCs under credit backpressure.";
    exp_run =
      Param.const (fun ~quick ~seed ->
          let cfg = { e13_mesh with seed } in
          if quick then
            [
              report_hotspot ~loads:[ 0.2; 0.6; 0.8; 1.0 ] ~pcts:[ 25; 50 ]
                ~vc_counts:[ 1; 4 ] cfg;
            ]
          else [ report_hotspot ~pcts:[ 10; 25; 50 ] ~vc_counts:[ 1; 2; 4 ] cfg ]);
    exp_anchors =
      List.map
        (fun vcs ->
          anchor
            (Printf.sprintf "e13.knee@hot50.vcs%d" vcs)
            "e13_hotspot"
            (Report.Row [ ("hot_pct", "50"); ("vcs", string_of_int vcs) ])
            "knee")
        [ 1; 4 ];
  }

(* E18: head-of-line blocking the analytic wire cannot see. The
   analytic crossing reserves a whole packet's occupancy interval per
   link and lets later packets backfill gaps, so a blocked hotspot
   packet never holds buffers on upstream links. The flit crossing
   does: in the E13 regime (hot 50 %, 2 KB messages, link-bound wires,
   finite deposit credits) a stalled worm's flits sit in the
   per-(link, VC) input FIFOs across several links and cold flows
   sharing those links wait behind them even when their own wire is
   free. One row per VC count compares the two crossings at the same
   offered load: [hol_delta] (flit p99 minus analytic p99) is the
   latency the packet-granularity model under-reports, [hol_cycles]
   counts link flit-cycles an idle wire spent blocked on VC/credit
   availability, and [occupancy] shows where the worms sat per VC.
   Extra VCs let cold flits interleave around the blocked worm, so
   both the delta and the stall count shrink from 1 VC to 4. *)
let e18_mesh =
  { e13_mesh with
    pattern = Pattern.Hotspot { node = 0; pct = 50 }; window_cycles = 60_000 }

let report_flit ~load ~vc_counts (cfg : Load_gen.config) =
  let hot_pct =
    match cfg.pattern with
    | Pattern.Hotspot { pct; _ } -> pct
    | _ -> invalid_arg "report_flit: E18 needs a hotspot pattern"
  in
  let p = probe () in
  let send_cycles = ref 0 in
  let point crossing vcs =
    let o =
      Sweep.over ~loads:[ load ] ~probe:(watch p)
        { cfg with crossing; vc_count = vcs }
    in
    send_cycles := o.Sweep.send_cycles;
    heaviest o
  in
  let rows =
    List.map
      (fun vcs ->
        let a = point `Analytic vcs in
        let f = point `Flit vcs in
        let occ =
          String.concat " "
            (List.mapi
               (fun vc (mean, mx) -> Printf.sprintf "vc%d:%.2f/%d" vc mean mx)
               (Array.to_list f.Load_gen.flit_occupancy))
        in
        [
          ("vcs", vi vcs);
          ("analytic_p50", vi a.Load_gen.p50_latency);
          ("analytic_p99", vi a.Load_gen.p99_latency);
          ("flit_p50", vi f.Load_gen.p50_latency);
          ("flit_p99", vi f.Load_gen.p99_latency);
          ( "hol_delta",
            vi (f.Load_gen.p99_latency - a.Load_gen.p99_latency) );
          ("hol_cycles", vi f.Load_gen.flit_hol_cycles);
          ("analytic_delivered", vi a.Load_gen.delivered);
          ("flit_delivered", vi f.Load_gen.delivered);
          ("occupancy", vs occ);
        ])
      vc_counts
  in
  Report.make ~id:"e18_flit"
    ~title:
      (Printf.sprintf
         "E18: flit-level wormhole crossing vs the analytic wire, %d-node \
          mesh, %d%% hotspot at load %.2f (head-of-line blocking per VC \
          count)"
         cfg.nodes hot_pct load)
    ~meta:
      (mesh_meta cfg ~send_cycles:!send_cycles
         [
           ("hot_pct", vi hot_pct);
           ("load", vf load);
           ("msg_bytes", vi cfg.msg_bytes);
           ("link_per_word", vi cfg.link_per_word);
           ("flit_words", vi cfg.flit_words);
           ("rx_credits", v_opt vi "unlimited" cfg.rx_credits);
         ])
    ~columns:
      [
        ("vcs", "VCs");
        ("analytic_p99", "ana p99");
        ("flit_p99", "flit p99");
        ("hol_delta", "HOL delta");
        ("hol_cycles", "HOL cyc");
        ("flit_delivered", "flit del");
        ("occupancy", "occ (mean/max)");
      ]
    ~breakdown:(breakdown p) rows

let e18 =
  {
    exp_name = "flit";
    exp_alias = "e18";
    exp_doc =
      "E18: flit-level wormhole crossing vs the analytic wire — hotspot \
       head-of-line blocking delta and per-VC occupancy at 1-4 VCs.";
    exp_run =
      Param.const (fun ~quick ~seed ->
          let cfg = { e18_mesh with seed } in
          let vc_counts, cfg =
            if quick then ([ 1; 4 ], { cfg with window_cycles = 20_000 })
            else ([ 1; 2; 4 ], cfg)
          in
          [ report_flit ~load:0.5 ~vc_counts cfg ]);
    exp_anchors =
      List.map
        (fun vcs ->
          anchor
            (Printf.sprintf "e18.hol_delta@vcs%d" vcs)
            "e18_flit"
            (Report.Row [ ("vcs", string_of_int vcs) ])
            "hol_delta")
        [ 1; 4 ];
  }
