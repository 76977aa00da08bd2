(* Host-performance benchmark of the SHRIMP UDMA simulator.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
     Runs episodes of one workload for S seconds on input seeds derived
     from N, checks every episode's simulated outputs, and prints as its
     last line one JSON object with the end-to-end metrics (trace 0) or
     the per-layer metrics (trace 1).
   perfbench --record FILE   writes the recorded simulated outputs
   perfbench --selftest      checks the benchmark against itself

   Every episode runs in a forked child, so each one starts from the
   same heap and its peak heap is its own. See README.md. *)

module W = Workloads
module Json = Udma_obs.Json

type workload = {
  name : string;
  purpose : string;
  op : string;
  loads : string list;  (** layers that do the work *)
  bypasses : string list;
  predicted : string;  (** layer expected to have the largest est_share *)
  episode : traced:bool -> seed:int -> W.episode;
  twin : (seed:int -> W.episode) option;
      (** a configuration whose outputs must equal [episode]'s; [None]
          repeats [episode] itself *)
}

(* Episode sizes: 0.2 to 0.4 s of host time each on a 2-core x86 host,
   so a 10-second run gives a median over 25 to 50 episodes. *)
let kv_window = 3_000_000
let flit_window = 30_000
let sharded_window = 80_000
let stream_sends = 3_000 (* a multiple of 5 x 8 rounds: every shape equally often *)

let workloads =
  [
    {
      name = "kv_hotshard";
      purpose =
        "Kv.run closed loop: 16 nodes, 4 clients per node, 2 KB values, 50% \
         writes, 25% of keys on hot shard 0, 4 VCs, 8 credits, link_per_word \
         2, load 0.6";
      op = "one request issued inside the measurement window";
      loads =
        [ "sim (Engine, Eventq)"; "obs (Metrics)";
          "shrimp (Messaging.inject, NI deposit, analytic VC/credit Router)" ];
      bypasses = [ "flit crossing"; "Shard kernel" ];
      predicted = "sim";
      episode = (fun ~traced:_ ~seed -> W.kv_hotshard ~window:kv_window ~seed);
      twin = None;
    };
    {
      name = "mesh_flit";
      purpose =
        "Load_gen.run open Poisson loop: 16 nodes, flit crossing, 1-word \
         flits, 2 VCs, 8 flit credits, 2 KB messages, 25% hotspot, \
         link_per_word 2, load 0.5";
      op = "one message launched";
      loads = [ "shrimp (Router flit pass)"; "sim (Engine)"; "obs (Metrics)" ];
      bypasses = [ "Shard kernel"; "user-level send path (calibration only)" ];
      predicted = "shrimp";
      episode = (fun ~traced:_ ~seed -> W.mesh_flit ~window:flit_window ~seed);
      twin = None;
    };
    {
      name = "mesh_sharded";
      purpose =
        "Sweep.run on the sharded kernel with 2 domains: 16x16 mesh, uniform \
         256 B messages, load 0.9";
      op = "one message launched";
      loads = [ "sim (Shard windows, barriers, outbox merges)" ];
      bypasses = [ "Engine"; "Metrics"; "Router"; "NI" ];
      predicted = "sim";
      episode =
        (fun ~traced ~seed ->
          W.mesh_sharded ~stats:traced ~domains:2 ~window:sharded_window ~seed ());
      twin =
        Some (fun ~seed -> W.mesh_sharded ~domains:1 ~window:sharded_window ~seed ());
    };
    {
      name = "udma_stream";
      purpose =
        "one sender on a 2-node System: back-to-back Messaging.send_nowait of \
         64 B, 512 B, 4 KB, 8 KB, then one Messaging.send_strided in one page";
      op = "one user-level send";
      loads =
        [ "core (UDMA state machine, engine)"; "mmu (translate, TLB)";
          "dma (Dma_engine, Midend)"; "protect (proxy device check)";
          "shrimp (NI)" ];
      bypasses = [ "router contention (one idle link)"; "Shard kernel" ];
      predicted = "core";
      episode = (fun ~traced:_ ~seed -> W.udma_stream ~sends:stream_sends ~seed);
      twin = None;
    };
  ]

let end_to_end = [ ("ops_per_s", "1/s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let layers = [ "sim"; "obs"; "shrimp"; "core"; "mmu"; "dma"; "protect" ]

let per_layer =
  [
    ("sim.events_per_op", "count"); ("sim.event_ns", "ns"); ("sim.eventq_ns", "ns");
    ("shard.event_ns", "ns"); ("shard.events_per_window", "count");
    ("shard.windows", "count"); ("shard.cross_posts_per_op", "count");
    ("shard.speedup_2v1", "x"); ("obs.counter_updates_per_op", "count");
    ("obs.incr_ns", "ns"); ("obs.observe_ns", "ns"); ("obs.trace_off_ns", "ns");
    ("router.packets_per_op", "count"); ("router.send_ns", "ns");
    ("router.flit_grants_per_op", "count"); ("router.flit_grants_per_event", "count");
    ("router.flit_packet_us", "us"); ("ni.packets_received_per_op", "count");
    ("ni.inject_deposit_us", "us"); ("udma.initiations_per_op", "count");
    ("udma.retries_per_op", "count"); ("udma.probes_per_op", "count");
    ("udma.send_us", "us"); ("udma.poll_ns", "ns");
    ("mmu.tlb_hit_ratio", "ratio"); ("mmu.translate_ns", "ns");
    ("dma.bytes_per_op", "B"); ("dma.plan_ns.contig", "ns"); ("dma.plan_ns.sg16", "ns");
    ("dma.execute_ns.4k", "ns");
    ("protect.authorize_ns", "ns"); ("protect.validate_ns", "ns");
    ("gc.minor_words_per_op", "words"); ("gc.major_words_per_op", "words");
    ("gc.major_collections", "count");
  ]
  @ List.map (fun l -> (l ^ ".est_share", "%")) layers
  @ [ ("residual_pct", "%"); ("trace_overhead_pct", "%") ]

(* ------------------------------------------------------------------ *)
(* episodes in child processes                                         *)
(* ------------------------------------------------------------------ *)

type outcome = Done of W.episode * float (* peak heap MB *) | Raised of string

let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r =
        try
          let ep = f () in
          let words = (Gc.quick_stat ()).Gc.top_heap_words in
          Done (ep, float_of_int (words * (Sys.word_size / 8)) /. 1048576.0)
        with e -> Raised (Printexc.to_string e)
      in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try (Marshal.from_channel ic : outcome)
        with End_of_file | Failure _ -> Raised "episode process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      r

(* A run of seed [s] cycles its episodes through the input seeds
   [s * inputs] .. [s * inputs + inputs - 1]. Host cost per op depends
   on the inputs in some workloads (how many flit worms overlap), so a
   run covers several input sets, and two runs of different seeds
   differ less than two input sets do. *)
let inputs = 16

let input_seed seed k = (seed * inputs) + k

(* Episodes until [seconds] have passed (at least one), each paired
   with its input seed. *)
let collect ~seconds ~seed f =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go k acc =
    let s = input_seed seed (k mod inputs) in
    let acc = (s, in_child (fun () -> f s)) :: acc in
    if Unix.gettimeofday () >= deadline then List.rev acc else go (k + 1) acc
  in
  go 0 []

type ran = { input : int; ep : W.episode; heap_mb : float }

let done_ =
  List.filter_map (function
    | input, Done (ep, heap_mb) -> Some { input; ep; heap_mb }
    | _, Raised _ -> None)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* the exact-output check                                              *)
(* ------------------------------------------------------------------ *)

let digest outputs = Digest.to_hex (Digest.string (Json.to_string (Json.Obj outputs)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let recorded expected ~workload ~seed =
  Option.bind
    (Json.path [ workload; "digests"; string_of_int seed ] expected)
    Json.string_

type verdict = {
  attempted : int;
  failed : int;
  correct : bool;
  check : string;  (** how the outputs were checked *)
  notes : string list;
}

(* Episodes of one input seed, the twin configuration's included,
   must give identical outputs, equal to the recorded ones when the
   input seed has a record. A difference fails every op of the run. *)
let judge ~expected wl outcomes =
  let ran = done_ outcomes in
  let attempted = List.fold_left (fun a r -> a + r.ep.W.attempted) 0 ran in
  let failed = List.fold_left (fun a r -> a + r.ep.W.failed) 0 ran in
  let errors = List.filter_map (function _, Raised m -> Some m | _, Done _ -> None) outcomes in
  let record s = recorded expected ~workload:wl.name ~seed:s in
  let reference s =
    match record s with
    | Some d -> d
    | None -> digest (List.find (fun r -> r.input = s) ran).ep.W.outputs
  in
  let mismatch = List.exists (fun r -> digest r.ep.W.outputs <> reference r.input) ran in
  let check =
    if List.for_all (fun r -> record r.input <> None) ran then
      "recorded outputs for every input seed"
    else "input seeds without a record: episodes checked against each other"
  in
  if errors <> [] || ran = [] then
    { attempted = max 1 attempted; failed = max 1 attempted; correct = false; check;
      notes = List.map (fun m -> "episode raised: " ^ m) errors }
  else if mismatch then
    { attempted; failed = attempted; correct = false; check;
      notes = [ "simulated outputs differ from the record or between episodes" ] }
  else { attempted; failed; correct = failed = 0; check; notes = [] }

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

let finite x = if Float.is_finite x then x else 0.0

let metric_json specs values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = finite (Option.value (List.assoc_opt name values) ~default:0.0) in
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
       specs)

let end_to_end_values ran =
  let ops_per_s r = float_of_int r.ep.W.completed /. r.ep.W.run_s in
  [
    ("ops_per_s", median (List.map ops_per_s ran));
    ("setup_s", median (List.map (fun r -> r.ep.W.setup_s) ran));
    ("peak_heap_mb", median (List.map (fun r -> r.heap_mb) ran));
  ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-layer metrics of the traced episode [t]: work counts per op,
   unit costs [u] (ns, by name, see Micro.measure), and each layer's
   estimated share of the run phase's wall time [wall_s]. *)
let layer_values wl u (t : W.episode) ~wall_s ~untraced_run_s ~speedup =
  let c = W.count t.W.counts in
  let ops = float_of_int t.W.completed in
  let per_op name = ratio (c name) ops in
  let sharded = c "windows" > 0.0 and flit = c "flit_grants" > 0.0 in
  let est =
    [
      ("sim", c "events" *. u (if sharded then "shard_event_ns" else "event_ns"));
      ("obs", (c "counter_updates" *. u "incr_ns") +. (c "observations" *. u "observe_ns"));
      ( "shrimp",
        (if flit then c "events" *. u "flit_event_self_ns"
         else c "packets" *. u "router_self_ns")
        +. (c "ni_deposits" *. u "ni_self_ns") );
      ("core", (c "initiations" *. u "udma_self_ns") +. (c "probes" *. u "udma_poll_ns"));
      ("mmu", (c "tlb_hits" +. c "tlb_misses") *. u "translate_ns");
      ("dma", (c "dma_transfers" *. u "plan_contig_ns") +. (c "dma_bytes" *. u "dma_byte_ns"));
      ("protect", c "protect_checks" *. u "validate_ns");
    ]
  in
  let shares = List.map (fun (l, ns) -> (l, 100.0 *. ratio ns (wall_s *. 1e9))) est in
  let largest =
    fst (List.fold_left (fun (bl, bs) (l, s) -> if s > bs then (l, s) else (bl, bs)) ("", -1.0) shares)
  in
  let values =
    [
      ("sim.events_per_op", per_op "events");
      ("sim.event_ns", u "event_ns");
      ("sim.eventq_ns", u "eventq_ns");
      ("shard.event_ns", u "shard_event_ns");
      ("shard.events_per_window", ratio (c "events") (c "windows"));
      ("shard.windows", c "windows");
      ("shard.cross_posts_per_op", per_op "cross_posts");
      ("shard.speedup_2v1", speedup);
      ( "obs.counter_updates_per_op",
        ratio (c "counter_updates" +. c "engine_updates" +. c "observations") ops );
      ("obs.incr_ns", u "incr_ns");
      ("obs.observe_ns", u "observe_ns");
      ("obs.trace_off_ns", u "trace_off_ns");
      ("router.packets_per_op", per_op "packets");
      ("router.send_ns", u "router_send_ns");
      ("router.flit_grants_per_op", per_op "flit_grants");
      ("router.flit_grants_per_event", ratio (c "flit_grants") (c "events"));
      ("router.flit_packet_us", u "flit_packet_ns" /. 1000.0);
      ("ni.packets_received_per_op", per_op "ni_deposits");
      ("ni.inject_deposit_us", u "inject_deposit_ns" /. 1000.0);
      ("udma.initiations_per_op", per_op "initiations");
      ("udma.retries_per_op", per_op "retries");
      ("udma.probes_per_op", per_op "probes");
      ("udma.send_us", u "udma_send_ns" /. 1000.0);
      ("udma.poll_ns", u "udma_poll_ns");
      ("mmu.tlb_hit_ratio", ratio (c "tlb_hits") (c "tlb_hits" +. c "tlb_misses"));
      ("mmu.translate_ns", u "translate_ns");
      ("dma.bytes_per_op", per_op "dma_bytes");
      ("dma.plan_ns.contig", u "plan_contig_ns");
      ("dma.plan_ns.sg16", u "plan_sg16_ns");
      ("dma.execute_ns.4k", u "execute_4k_ns");
      ("protect.authorize_ns", u "authorize_ns");
      ("protect.validate_ns", u "validate_ns");
      ("gc.minor_words_per_op", per_op "minor_words");
      ("gc.major_words_per_op", per_op "major_words");
      ("gc.major_collections", c "major_collections");
    ]
    @ List.map (fun (l, s) -> (l ^ ".est_share", s)) shares
    @ [
        ("residual_pct", 100.0 -. List.fold_left (fun a (_, s) -> a +. s) 0.0 shares);
        ("trace_overhead_pct", 100.0 *. (ratio wall_s untraced_run_s -. 1.0));
      ]
  in
  let prediction =
    Json.Obj
      [
        ("predicted_largest", Json.Str wl.predicted);
        ("measured_largest", Json.Str largest);
        ("held", Json.Bool (largest = wl.predicted));
      ]
  in
  (values, prediction)

(* ------------------------------------------------------------------ *)
(* one run                                                             *)
(* ------------------------------------------------------------------ *)

let spans_json spans =
  Json.List
    (List.map
       (fun (s : W.span) ->
         Json.Obj
           [ ("name", Json.Str s.W.name); ("start_s", Json.Float s.W.start);
             ("stop_s", Json.Float s.W.stop) ])
       spans)

let counts_json counts = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) counts)

let strs l = Json.List (List.map (fun s -> Json.Str s) l)

let result_line (v : verdict) metrics =
  Json.Obj
    [
      ("correct", Json.Bool v.correct);
      ("attempted", Json.Int v.attempted);
      ("failed", Json.Int v.failed);
      ("metrics", metrics);
    ]

let run_workload ~expected wl ~seed ~seconds ~trace =
  let r = W.recorder () in
  (* the traced run spends half its time on untraced episodes, whose
     median is the base of trace_overhead_pct *)
  let timed = if trace then seconds /. 2.0 else seconds in
  let outcomes =
    W.span r "episodes" (fun () ->
        collect ~seconds:timed ~seed (fun s -> wl.episode ~traced:false ~seed:s))
  in
  let first = input_seed seed 0 in
  let repeat n f = List.init n (fun _ -> (first, in_child f)) in
  (* a repeat of the first input seed checks determinism even when the
     seed has no record; the traced run of a twin configuration takes
     three, for a median 1-domain time in shard.speedup_2v1 *)
  let twins =
    W.span r "repeat" (fun () ->
        match wl.twin with
        | None -> repeat 1 (fun () -> wl.episode ~traced:false ~seed:first)
        | Some f -> repeat (if trace then 3 else 1) (fun () -> f ~seed:first))
  in
  (* three traced episodes: their counts are identical, and the median
     of their wall times is the base of the layer shares *)
  let traced =
    if trace then
      W.span r "traced" (fun () -> repeat 3 (fun () -> wl.episode ~traced:true ~seed:first))
    else []
  in
  let v = W.span r "verify" (fun () -> judge ~expected wl (outcomes @ twins @ traced)) in
  let ran = done_ outcomes in
  let on_first = List.filter (fun r -> r.input = first) ran in
  let detail =
    [
      ("workload", Json.Str wl.name);
      ("seed", Json.Int seed);
      ( "input_seeds",
        Json.List (List.map (fun s -> Json.Int s) (List.sort_uniq compare (List.map fst outcomes))) );
      ("trace", Json.Bool trace);
      ("purpose", Json.Str wl.purpose);
      ("op", Json.Str wl.op);
      ("loads", strs wl.loads);
      ("bypasses", strs wl.bypasses);
      ("episodes", Json.Int (List.length outcomes));
      ( "per_episode",
        Json.List
          (List.map
             (fun r ->
               Json.List
                 [ Json.Int r.input; Json.Int r.ep.W.completed; Json.Float r.ep.W.setup_s;
                   Json.Float r.ep.W.run_s; Json.Float r.heap_mb ])
             ran) );
      ("check", Json.Str v.check);
      ("notes", strs v.notes);
      ( "outputs",
        match on_first with r :: _ -> Json.Obj r.ep.W.outputs | [] -> Json.Null );
    ]
  in
  let metrics, extra =
    match (trace, done_ traced) with
    | false, _ -> (metric_json end_to_end (end_to_end_values ran), [])
    | true, ({ ep = t; _ } :: _ as ts) ->
        let run_s l = median (List.map (fun r -> r.ep.W.run_s) l) in
        let untraced_run_s = run_s on_first in
        let speedup =
          if Option.is_none wl.twin then 0.0 else ratio (run_s (done_ twins)) untraced_run_s
        in
        let units =
          W.span r "micro" (fun () -> Micro.measure ~quota:0.2 ~counter_names:t.W.counter_names)
        in
        let values, prediction =
          layer_values wl (fun k -> List.assoc k units) t ~wall_s:(run_s ts) ~untraced_run_s
            ~speedup
        in
        ( metric_json per_layer values,
          [ ("prediction", prediction); ("counts", counts_json t.W.counts);
            ("unit_costs_ns", counts_json units);
            ("episode_spans", spans_json t.W.spans);
            ("run_spans", spans_json (List.rev r.W.spans)) ] )
    | true, [] -> (metric_json per_layer [], [])
  in
  print_endline (Json.to_string (Json.Obj (detail @ extra)));
  print_endline (Json.to_string (result_line v metrics));
  v

(* ------------------------------------------------------------------ *)
(* record and self-test                                                *)
(* ------------------------------------------------------------------ *)

let default_seed = 42
let held_out_seed = 7919
(* runs whose input seeds expected.json records *)
let recorded_runs = List.init 16 Fun.id @ [ default_seed; held_out_seed ]

let record path =
  let doc =
    Json.Obj
      (List.map
         (fun wl ->
           let outputs seed =
             match in_child (fun () -> wl.episode ~traced:false ~seed) with
             | Done (e, _) -> e.W.outputs
             | Raised m -> failwith (wl.name ^ ": " ^ m)
           in
           Printf.eprintf "recording %s\n%!" wl.name;
           ( wl.name,
             Json.Obj
               [
                 ("outputs_at_seed_42", Json.Obj (outputs (input_seed default_seed 0)));
                 ( "digests",
                   Json.Obj
                     (List.concat_map
                        (fun run ->
                          List.init inputs (fun k ->
                              let s = input_seed run k in
                              (string_of_int s, Json.Str (digest (outputs s)))))
                        recorded_runs) );
               ] ))
         workloads)
  in
  let oc = open_out_bin path in
  output_string oc (Json.to_string ~indent:1 doc);
  output_char oc '\n';
  close_out oc

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* Checks the benchmark against itself; prints one line per check and
   returns whether all held. *)
let selftest ~expected ~bench_json =
  let ok = ref true in
  let check name cond =
    Printf.printf "%-60s %s\n%!" name (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  List.iter
    (fun (n, _) -> check ("metric name " ^ n) (valid_name n))
    (end_to_end @ per_layer);
  let names key =
    match Json.member key bench_json with
    | Some l -> List.filter_map (fun o -> Option.bind (Json.member "name" o) Json.string_) (Json.to_list l)
    | None -> []
  in
  check "BENCHMARK.json workloads are the program's"
    (names "workloads" = List.map (fun w -> w.name) workloads);
  check "BENCHMARK.json end_to_end metrics are the program's"
    (names "end_to_end" = List.map fst end_to_end);
  check "BENCHMARK.json per_layer metrics are the program's"
    (names "per_layer" = List.map fst per_layer);
  (* the shortest run of each workload, twice on the held-out seed *)
  List.iter
    (fun wl ->
      let run () = run_workload ~expected wl ~seed:held_out_seed ~seconds:0.0 ~trace:false in
      let v1 = run () and v2 = run () in
      check (wl.name ^ ": shortest run has fail_pct 0")
        (v1.correct && v1.failed = 0 && v2.correct && v2.failed = 0);
      check (wl.name ^ ": held-out seed matches its record")
        (v1.check = "recorded outputs for every input seed"))
    workloads;
  (* the result line parses with Udma_obs.Json and prints back the same *)
  let line =
    Json.to_string
      (result_line
         { attempted = 3; failed = 0; correct = true; check = ""; notes = [] }
         (metric_json per_layer [ ("sim.event_ns", 12.345678901234567) ]))
  in
  check "result line round-trips through Udma_obs.Json"
    (match Json.parse line with Ok j -> Json.to_string j = line | Error _ -> false);
  !ok

(* ------------------------------------------------------------------ *)
(* command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
  \       perfbench --record FILE\n\
  \       perfbench --selftest"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and record_to = ref "" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds of episodes");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--record", Arg.Set_string record_to, "FILE write recorded outputs");
      ("--selftest", Arg.Set self, " check the benchmark itself");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !record_to <> "" then record !record_to
  else
    let parse path =
      match Json.parse (read_file path) with
      | Ok j -> j
      | Error m -> failwith (path ^ ": " ^ m)
    in
    let expected = parse "perfbench/expected.json" in
    if !self then exit (if selftest ~expected ~bench_json:(parse "BENCHMARK.json") then 0 else 1)
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | None ->
          prerr_endline ("unknown workload '" ^ !workload ^ "'\n" ^ usage);
          exit 2
      | Some wl ->
          (* a wrong output is reported in the result line, not by the
             exit code *)
          ignore (run_workload ~expected wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
