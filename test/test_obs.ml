(* Unit + property tests for the observability layer (lib/obs): JSON
   emitter/parser, metrics histograms, the report schema, and the
   profiler invariant sum(categories) = Engine.now. *)

module Json = Udma_obs.Json
module Event = Udma_obs.Event
module Metrics = Udma_obs.Metrics
module Profiler = Udma_obs.Profiler
module Report = Udma_obs.Report
module Engine = Udma_sim.Engine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ---------- Json ---------- *)

let test_json_emit () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Str "x"; Json.Bool true; Json.Null ]);
        ("c", Json.Float 1.5);
      ]
  in
  checks "compact" {|{"a":1,"b":["x",true,null],"c":1.5}|} (Json.to_string doc)

let test_json_escapes () =
  checks "escaped" {|"a\"b\\c\nd"|} (Json.to_string (Json.Str "a\"b\\c\nd"))

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "udma-bench/1");
        ("n", Json.Int (-42));
        ("x", Json.Float 0.25);
        ("flags", Json.List [ Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("deep", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
        ("text", Json.Str "line1\nline2 \"quoted\" \\slash");
      ]
  in
  (* emit (indented and compact), reparse, compare structurally *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok doc' -> checkb "roundtrip" true (doc = doc')
      | Error msg -> Alcotest.failf "parse failed: %s" msg)
    [ Json.to_string doc; Json.to_string ~indent:2 doc ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2" ]

let test_json_accessors () =
  let doc =
    Json.Obj
      [ ("outer", Json.Obj [ ("inner", Json.List [ Json.Int 7 ]) ]) ]
  in
  (match Json.path [ "outer"; "inner" ] doc with
  | Some (Json.List [ Json.Int 7 ]) -> ()
  | _ -> Alcotest.fail "path lookup");
  checkb "number of int" true (Json.number (Json.Int 3) = Some 3.0);
  checkb "string_" true (Json.string_ (Json.Str "s") = Some "s")

(* ---------- Json properties ---------- *)

(* finite floats, weighted towards the corners of the emitter: integral
   values (printed "%.1f" below 1e15, by significant digits above),
   subnormals, and 16-17 digit integers that %.17g prints without a
   '.' or exponent *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, float_range (-1e6) 1e6);
        (2, map float_of_int (int_range (-1_000_000) 1_000_000));
        (2, map (fun n -> 1e15 +. float_of_int n) (int_range 0 1_000_000));
        (2, map (fun n -> Int64.float_of_bits (Int64.of_int n)) (int_range 1 1_000_000));
        (1, map (fun e -> 10.0 ** float_of_int e) (int_range (-320) 308));
        (2, map (fun x -> if Float.is_finite x then x else 0.0) float);
      ])

let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 12) in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) (oneof [ int; return max_int; return min_int; small_signed_int ]));
        (3, map (fun f -> Json.Float f) gen_float);
        (2, map (fun s -> Json.Str s) str);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 3))));
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair str (self (n / 3)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string v) = v"
    (QCheck.make ~print:(Json.to_string ~indent:2) gen_json)
    (fun v ->
      List.for_all
        (fun s -> Json.parse s = Ok v)
        [ Json.to_string v; Json.to_string ~indent:2 v ])
  |> QCheck_alcotest.to_alcotest

(* a real udma-bench/1 document to mutate *)
let bench_doc =
  lazy
    (Json.to_string ~indent:2
       (Report.bench_json
          ~meta:[ ("seed", Report.Int 42) ]
          [ Udma_workloads.Exp_send.report_costs () ]))

let prop_json_parse_total =
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:char (int_range 0 64);
          string_size
            ~gen:(oneofl [ '['; ']'; '{'; '}'; '"'; ','; ':'; '\\'; 'u'; '0'; '-'; 'e'; '.'; ' ' ])
            (int_range 0 64);
          (* a truncation of the real document with one byte replaced *)
          map3
            (fun cut at c ->
              let doc = Lazy.force bench_doc in
              let b = Bytes.of_string doc in
              Bytes.set b (at mod Bytes.length b) c;
              Bytes.sub_string b 0 (cut mod (Bytes.length b + 1)))
            nat nat char;
        ])
  in
  QCheck.Test.make ~count:1000 ~name:"Json.parse never raises"
    (QCheck.make ~print:String.escaped gen)
    (fun s -> match Json.parse s with Ok _ | Error _ -> true)
  |> QCheck_alcotest.to_alcotest

let test_json_float_roundtrip_cases () =
  (* integral floats of 16-17 digits print without a '.' at %.17g and
     used to read back as [Int] *)
  List.iter
    (fun f ->
      checkb (Printf.sprintf "%.17g stays a float" f) true
        (Json.parse (Json.to_string (Json.Float f)) = Ok (Json.Float f)))
    [ 1234567890123456.0; 12345678901234568.0; -1000000000000001.0;
      4.9e-324; 1e15 ]

let test_json_of_file () =
  (match Json.of_file "/nonexistent/baseline.json" with
  | Ok _ -> Alcotest.fail "missing file read as JSON"
  | Error msg ->
      checkb "read error names the file" true
        (String.starts_with ~prefix:"cannot read /nonexistent/baseline.json" msg));
  let path = Filename.temp_file "udma_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc {|{"schema": "udma-bench/1", "experiments": [|});
      (match Json.of_file path with
      | Ok _ -> Alcotest.fail "malformed file accepted"
      | Error msg ->
          checkb "parse error names the file" true
            (String.starts_with ~prefix:("cannot parse " ^ path) msg));
      Out_channel.with_open_bin path (fun oc -> output_string oc "[1, 2.5]");
      checkb "well-formed file" true
        (Json.of_file path = Ok (Json.List [ Json.Int 1; Json.Float 2.5 ])))

(* ---------- Metrics histograms ---------- *)

let test_histogram_edges () =
  let m = Metrics.create () in
  (* default buckets are powers of two 1..65536; a value lands in the
     first bucket whose edge is >= the value *)
  Metrics.observe m "h" 1;
  Metrics.observe m "h" 2;
  Metrics.observe m "h" 3;
  (* 3 -> bucket le_4 *)
  Metrics.observe m "h" 65536;
  Metrics.observe m "h" 65537;
  (* -> overflow *)
  Metrics.observe m "h" 0;
  (* 0 <= 1 -> first bucket *)
  match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      checki "count" 6 h.Metrics.count;
      checki "sum" (1 + 2 + 3 + 65536 + 65537 + 0) h.Metrics.sum;
      checki "overflow" 1 h.Metrics.overflow;
      let bucket edge = List.assoc edge h.Metrics.buckets in
      checki "le_1 holds 0 and 1" 2 (bucket 1);
      checki "le_2 holds 2" 1 (bucket 2);
      checki "le_4 holds 3" 1 (bucket 4);
      checki "le_65536 holds 65536" 1 (bucket 65536)

let test_histogram_custom_buckets () =
  let m = Metrics.create () in
  Metrics.observe m ~buckets:[ 10; 100 ] "h" 5;
  Metrics.observe m ~buckets:[ 10; 100 ] "h" 10;
  Metrics.observe m ~buckets:[ 10; 100 ] "h" 11;
  Metrics.observe m ~buckets:[ 10; 100 ] "h" 1000;
  (match Metrics.histogram m "h" with
  | Some h ->
      checki "le_10" 2 (List.assoc 10 h.Metrics.buckets);
      checki "le_100" 1 (List.assoc 100 h.Metrics.buckets);
      checki "overflow" 1 h.Metrics.overflow
  | None -> Alcotest.fail "histogram missing");
  (* non-increasing edges are a programming error *)
  checkb "bad buckets rejected" true
    (match Metrics.observe m ~buckets:[ 10; 10 ] "h2" 1 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_histogram_percentile () =
  let m = Metrics.create () in
  (* 100 samples in bucket <=10, 10 in <=100, 1 overflow *)
  for _ = 1 to 100 do Metrics.observe m ~buckets:[ 10; 100 ] "h" 5 done;
  for _ = 1 to 10 do Metrics.observe m ~buckets:[ 10; 100 ] "h" 50 done;
  Metrics.observe m ~buckets:[ 10; 100 ] "h" 1000;
  (match Metrics.histogram m "h" with
  | Some h ->
      checkb "p50 in first bucket" true (Metrics.percentile h 50.0 = Some 10);
      checkb "p95 in second bucket" true (Metrics.percentile h 95.0 = Some 100);
      checkb "p100 lands in overflow (edge+1)" true
        (Metrics.percentile h 100.0 = Some 101);
      checkb "p out of range rejected" true
        (match Metrics.percentile h 0.0 with
        | _ -> false
        | exception Invalid_argument _ -> true)
  | None -> Alcotest.fail "histogram missing");
  (* empty histogram has no percentile *)
  Metrics.observe m "h2" 1;
  (match Metrics.histogram m "h2" with
  | Some h2 ->
      let empty = { h2 with Metrics.count = 0; buckets = []; overflow = 0 } in
      checkb "empty histogram" true (Metrics.percentile empty 50.0 = None)
  | None -> Alcotest.fail "histogram missing")

(* ---------- Metrics.percentile vs Metrics.nearest_rank agreement ----------

   Two percentile definitions live in the tree: the bucketed
   upper-bound estimate over histograms (Metrics.percentile) and the
   exact nearest-rank over a sorted sample (Metrics.nearest_rank, which
   traffic, tenants and the app SLOs all report through). Both use
   rank = ceil(p/100 * n), so when the histogram's bucket edges
   enumerate every distinct sample value the two must agree exactly;
   with a coarser ladder Metrics.percentile may only round the answer
   up to the next edge, never down. *)

let metrics_percentile_of_samples samples p =
  let distinct =
    List.sort_uniq compare samples
  in
  let m = Metrics.create () in
  List.iter (fun v -> Metrics.observe m ~buckets:distinct "h" v) samples;
  match Metrics.histogram m "h" with
  | Some h -> Metrics.percentile h p
  | None -> None

let exact_percentile_of_samples samples p =
  let sorted = Array.of_list (List.sort compare samples) in
  Metrics.nearest_rank sorted p

let test_percentile_agreement_exact () =
  let samples = [ 7; 1; 1; 3; 9; 3; 3; 200; 42; 5 ] in
  List.iter
    (fun p ->
      checkb
        (Printf.sprintf "exact-edge agreement at p%.1f" p)
        true
        (metrics_percentile_of_samples samples p
        = Some (exact_percentile_of_samples samples p)))
    [ 1.0; 25.0; 50.0; 90.0; 95.0; 99.0; 99.9; 100.0 ];
  (* single observation: every percentile is that observation *)
  checkb "singleton" true
    (metrics_percentile_of_samples [ 17 ] 50.0
    = Some (exact_percentile_of_samples [ 17 ] 50.0))

let test_percentile_divergence_coarse_buckets () =
  (* with a coarse ladder the bucketed answer rounds up: 3 samples all
     below the first edge report the edge, not the exact value *)
  let m = Metrics.create () in
  List.iter (fun v -> Metrics.observe m ~buckets:[ 100; 200 ] "h" v) [ 3; 5; 9 ];
  match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      checkb "bucketed p99 rounds up to edge" true
        (Metrics.percentile h 99.0 = Some 100);
      checki "exact p99 is the sample max" 9
        (exact_percentile_of_samples [ 3; 5; 9 ] 99.0)

let prop_percentile_agreement =
  let gen =
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60) (int_range 1 65536))
        (int_range 1 1000))
  in
  QCheck.Test.make ~count:300
    ~name:"exact-edge histogram percentile = nearest-rank percentile" gen
    (fun (samples, pmil) ->
      let p = float_of_int pmil /. 10.0 in
      metrics_percentile_of_samples samples p
      = Some (exact_percentile_of_samples samples p))
  |> QCheck_alcotest.to_alcotest

let prop_percentile_upper_bound =
  (* on the default power-of-two ladder the bucketed estimate never
     under-reports the exact percentile (values kept within the ladder
     so the overflow bucket stays out of play) *)
  let gen =
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60) (int_range 1 65536))
        (int_range 1 1000))
  in
  QCheck.Test.make ~count:300
    ~name:"default-ladder percentile upper-bounds the exact one" gen
    (fun (samples, pmil) ->
      let p = float_of_int pmil /. 10.0 in
      let m = Metrics.create () in
      List.iter (fun v -> Metrics.observe m "h" v) samples;
      match Metrics.histogram m "h" with
      | None -> false
      | Some h -> (
          match Metrics.percentile h p with
          | None -> false
          | Some est -> est >= exact_percentile_of_samples samples p))
  |> QCheck_alcotest.to_alcotest

let test_counters_and_gauges () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.add m "c" 4;
  checki "counter" 5 (Metrics.get m "c");
  checki "absent counter" 0 (Metrics.get m "zzz");
  Metrics.set_gauge m "g" 2.5;
  checkb "gauge" true (Metrics.gauge m "g" = Some 2.5)

(* Handles are an access path, not a second registry: any program of
   counter and histogram updates leaves the same registry whether it
   goes by name or by handle. *)
let prop_handles_match_names =
  QCheck.Test.make ~count:200 ~name:"bump/sample by handle = incr/add/observe"
    QCheck.(list (triple (int_bound 2) (int_bound 3) (int_range (-5) 70000)))
    (fun ops ->
      let names = [| "a"; "b"; "c"; "d" |] in
      let by_name = Metrics.create () and by_handle = Metrics.create () in
      let counters = Array.map (Metrics.counter by_handle) names in
      let samplers = Array.map (fun n -> Metrics.sampler by_handle n) names in
      List.iter
        (fun (op, i, v) ->
          match op with
          | 0 ->
              Metrics.incr by_name names.(i);
              Metrics.bump counters.(i)
          | 1 ->
              Metrics.add by_name names.(i) v;
              Metrics.bump_by counters.(i) v
          | _ ->
              Metrics.observe by_name names.(i) v;
              Metrics.sample samplers.(i) v)
        ops;
      Json.to_string (Metrics.to_json by_name)
      = Json.to_string (Metrics.to_json by_handle))
  |> QCheck_alcotest.to_alcotest

let test_unbumped_handle_invisible () =
  let m = Metrics.create () in
  Metrics.incr m "seen";
  let before = Json.to_string (Metrics.to_json m) in
  let _ = Metrics.counter m "never" and _ = Metrics.sampler m "never.h" in
  checkb "counters unchanged" true (Metrics.counters m = [ ("seen", 1) ]);
  checks "json unchanged" before (Json.to_string (Metrics.to_json m));
  (* a zero-sized bump does create the counter, as [add _ 0] does *)
  Metrics.bump_by (Metrics.counter m "zero") 0;
  checkb "bump_by 0 creates" true
    (Metrics.counters m = [ ("seen", 1); ("zero", 0) ])

(* Reading through a handle is [get] by name: an unbumped handle reads
   0 and, like every reader, leaves the registry's names unchanged. *)
let test_read_by_handle () =
  let m = Metrics.create () in
  let h = Metrics.counter m "c" in
  checki "unbumped handle reads 0" 0 (Metrics.read h);
  checkb "reading created nothing" true (Metrics.counters m = []);
  Metrics.bump_by h 3;
  Metrics.incr m "c";
  checki "read = get" 4 (Metrics.read h);
  Metrics.reset m;
  checki "read after reset" 0 (Metrics.read h);
  checkb "nothing created after reset" true (Metrics.counters m = [])

let test_handles_share_a_cell () =
  let m = Metrics.create () in
  let h1 = Metrics.counter m "c" and h2 = Metrics.counter m "c" in
  Metrics.bump h1;
  Metrics.bump_by h2 3;
  Metrics.incr m "c";
  checki "one counter behind both handles and the name" 5 (Metrics.get m "c");
  Metrics.set m "c" 10;
  Metrics.bump h1;
  checki "set by name is seen by the handle" 11 (Metrics.get m "c");
  let s1 = Metrics.sampler m "h" and s2 = Metrics.sampler m "h" in
  Metrics.sample s1 4;
  Metrics.sample s2 8;
  (match Metrics.histogram m "h" with
  | Some h -> checki "one histogram behind both samplers" 2 h.Metrics.count
  | None -> Alcotest.fail "histogram missing");
  (* after a reset the handles re-resolve instead of writing into the
     dropped cells *)
  Metrics.reset m;
  Metrics.bump h2;
  Metrics.sample s1 1;
  checki "counter after reset" 1 (Metrics.get m "c");
  checkb "histogram after reset" true
    (match Metrics.histogram m "h" with Some h -> h.Metrics.count = 1 | None -> false)

(* A hot path counting in plain fields, published through the read
   hook: [pending] bumps "c" and samples "h" only when flushed. *)
let hooked () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" and h = Metrics.sampler m "h" in
  let pending = ref 0 and samples = ref [] in
  Metrics.on_read m (fun () ->
      if !pending > 0 then Metrics.bump_by c !pending;
      List.iter (Metrics.sample h) (List.rev !samples);
      pending := 0;
      samples := []);
  (m, pending, samples)

let test_read_hook_readers () =
  let count_of m =
    match Metrics.histogram m "h" with Some h -> h.Metrics.count | None -> -1
  in
  let reads =
    [ ("get", fun m -> checki "get" 3 (Metrics.get m "c"));
      ("counters", fun m -> checkb "counters" true (Metrics.counters m = [ ("c", 3) ]));
      ("histogram", fun m -> checki "histogram" 2 (count_of m));
      ( "histograms",
        fun m ->
          checkb "histograms" true
            (List.map (fun (n, h) -> (n, h.Metrics.count)) (Metrics.histograms m)
            = [ ("h", 2) ]) );
      ( "to_json",
        fun m ->
          let j = Json.to_string (Metrics.to_json m) in
          let e = Metrics.create () in
          Metrics.add e "c" 3;
          Metrics.observe e "h" 5;
          Metrics.observe e "h" 700;
          checks "to_json" (Json.to_string (Metrics.to_json e)) j ) ]
  in
  List.iter
    (fun (_, read) ->
      let m, pending, samples = hooked () in
      pending := 3;
      samples := [ 700; 5 ];
      read m)
    reads

let test_read_hook_before_reset () =
  let m, pending, samples = hooked () in
  pending := 4;
  samples := [ 1 ];
  Metrics.reset m;
  checkb "reset drops the flushed deltas" true
    (Metrics.counters m = [] && Metrics.histograms m = []);
  pending := 2;
  checki "counts after a reset start at 0" 2 (Metrics.get m "c");
  checkb "no stale flush" true (Metrics.histogram m "h" = None)

let test_read_hook_idle_adds_nothing () =
  let m, _, _ = hooked () in
  Metrics.incr m "seen";
  checkb "an idle hook adds no name" true (Metrics.counters m = [ ("seen", 1) ]);
  checkb "and no histogram" true (Metrics.histograms m = []);
  checks "json" {|{"counters":{"seen":1},"gauges":{},"histograms":{}}|}
    (Json.to_string (Metrics.to_json m))

let test_sample_n_is_n_samples () =
  let bulk = Metrics.create () and single = Metrics.create () in
  let buckets = [ 1; 4; 16 ] in
  let sb = Metrics.sampler bulk ~buckets "h" and ss = Metrics.sampler single ~buckets "h" in
  List.iter
    (fun (v, n) ->
      Metrics.sample_n sb v n;
      for _ = 1 to n do
        Metrics.sample ss v
      done)
    [ (0, 2); (3, 5); (16, 1); (40, 7); (9, 0); (2, -1) ];
  checks "bulk add = n samples"
    (Json.to_string (Metrics.to_json single))
    (Json.to_string (Metrics.to_json bulk));
  let empty = Metrics.create () in
  Metrics.sample_n (Metrics.sampler empty "h") 5 0;
  checkb "n = 0 creates nothing" true (Metrics.histograms empty = [])

(* The router reports its FIFO depth through two channels: the typed
   [Link_wait] trace event and the [net.link.depth] histogram. Both
   must describe the same thing — the post-claim depth, i.e. including
   the packet that just claimed the link. Two back-to-back packets on
   one link: the histogram sees depths 1 then 2, and the one Link_wait
   event (only waiters are traced) carries depth 2. *)
let test_link_wait_depth_matches_metric () =
  let module Router = Udma_shrimp.Router in
  let module Packet = Udma_shrimp.Packet in
  let seen = ref [] in
  Udma_sim.Trace.set_global_sink
    (Some
       (fun (e : Event.t) ->
         match e.Event.payload with
         | Event.Link_wait { depth; _ } -> seen := depth :: !seen
         | _ -> ()));
  Fun.protect
    ~finally:(fun () -> Udma_sim.Trace.set_global_sink None)
    (fun () ->
      let engine = Engine.create () in
      let r =
        Router.create ~engine ~nodes:4
          ~config:{ Router.default_config with Router.link_contention = true }
          ()
      in
      Router.register r ~node_id:1 (fun _ -> ());
      let pkt seq =
        { Packet.src_node = 0; dst_node = 1; dst_paddr = 0;
          payload = Bytes.make 400 'x'; seq }
      in
      Router.send r (pkt 0);
      Router.send r (pkt 1);
      Engine.run_until_idle engine;
      checkb "one waiter traced" true (!seen = [ 2 ]);
      match Metrics.histogram (Engine.metrics engine) "net.link.depth" with
      | None -> Alcotest.fail "net.link.depth histogram missing"
      | Some h ->
          checki "one observation per claim" 2 h.Metrics.count;
          (* depths 1 then 2: the trace's depth=2 is the histogram's
             second sample, not a pre-claim depth=1 *)
          checki "sum of post-claim depths" 3 h.Metrics.sum)

(* ---------- Report: the golden schema ---------- *)

let test_report_golden_json () =
  let profiler = Profiler.create () in
  Profiler.charge profiler ~cat:Profiler.Kernel 10;
  Profiler.charge profiler ~cat:Profiler.Dma 30;
  let report =
    Report.make ~id:"e0_golden" ~title:"golden"
      ~meta:[ ("trials", Report.Int 2) ]
      ~columns:[ ("size", "size"); ("pct", "%") ]
      ~breakdown:(Profiler.snapshot profiler)
      [
        [ ("size", Report.Int 512); ("pct", Report.Float 51.0) ];
        [ ("size", Report.Int 4096); ("pct", Report.Float 96.0) ];
      ]
  in
  let doc = Report.bench_json ~meta:[ ("seed", Report.Int 42) ] [ report ] in
  let golden =
    {|{"schema":"udma-bench/1","meta":{"seed":42},"experiments":[{"id":"e0_golden","title":"golden","meta":{"trials":2},"rows":[{"size":512,"pct":51.0},{"size":4096,"pct":96.0}],"breakdown":{"user_ref":0,"kernel":10,"dma":30,"wire":0,"device":0,"idle":0,"total":40}}]}|}
  in
  checks "bench_json golden" golden (Json.to_string doc);
  (* and it must reparse *)
  match Json.parse (Json.to_string ~indent:2 doc) with
  | Ok doc' -> checkb "reparses" true (doc = doc')
  | Error msg -> Alcotest.failf "golden does not reparse: %s" msg

let test_report_schema_fields () =
  (* every experiment report carries id/title/rows, and the breakdown
     sums match the declared total *)
  let reports =
    [
      Udma_workloads.Exp_send.report_costs ();
      Udma_workloads.Exp_kernel.report_proxy_faults ();
    ]
  in
  List.iter
    (fun (r : Report.t) ->
      let doc = Report.to_json r in
      checkb "has id" true (Json.member "id" doc <> None);
      checkb "has rows" true
        (match Json.member "rows" doc with
        | Some (Json.List (_ :: _)) -> true
        | _ -> false);
      match Json.path [ "breakdown"; "total" ] doc with
      | Some (Json.Int total) ->
          let parts =
            List.fold_left
              (fun acc cat ->
                match
                  Json.path [ "breakdown"; Profiler.category_name cat ] doc
                with
                | Some (Json.Int n) -> acc + n
                | _ -> acc)
              0 Profiler.categories
          in
          checki "breakdown sums to total" total parts;
          checkb "experiment consumed cycles" true (total > 0)
      | _ -> Alcotest.fail "missing breakdown.total")
    reports

(* ---------- Events ---------- *)

let test_event_json () =
  let ev =
    Event.make ~time:7 Event.Udma
      (Event.Sm_transition { from_ = "Idle"; to_ = "SrcReady"; cause = "store" })
  in
  let doc = Event.to_json ev in
  checkb "time field" true (Json.member "t" doc = Some (Json.Int 7));
  checkb "sub field" true (Json.member "sub" doc = Some (Json.Str "udma"));
  checkb "kind field" true
    (Json.member "kind" doc = Some (Json.Str "sm_transition"))

let test_jsonl_sink () =
  let path = Filename.temp_file "udma_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Event.jsonl_sink oc in
      sink
        (Event.make ~time:1 Event.Dma
           (Event.Dma_burst { src = 0; dst = 0x1000; nbytes = 64; duration = 16 }));
      sink (Event.make ~time:2 Event.Sim (Event.Note "done"));
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      checki "one line per event" 2 (List.length lines);
      List.iter
        (fun line ->
          match Json.parse line with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "bad JSON line %s: %s" line msg)
        lines)

(* ---------- Profiler: the sum invariant, as a qcheck property ---------- *)

let qtest = QCheck_alcotest.to_alcotest

(* random program against the engine: advances, scheduled events (with
   and without a category), nested with_category sections *)
let prop_profiler_sums_to_now =
  let gen =
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (triple (int_bound 5) (int_bound 200) (int_bound 50)))
  in
  QCheck.Test.make ~count:200
    ~name:"profiler category totals always sum to Engine.now" gen (fun ops ->
      let engine = Engine.create () in
      List.iter
        (fun (kind, a, b) ->
          match kind with
          | 0 -> Engine.advance engine a
          | 1 ->
              Engine.with_category engine Engine.Profiler.User_ref (fun () ->
                  Engine.advance engine b)
          | 2 ->
              Engine.schedule engine ~delay:a (fun e -> Engine.advance e (b / 2))
          | 3 ->
              Engine.schedule engine ~cat:Engine.Profiler.Dma ~delay:a
                (fun _ -> ())
          | 4 ->
              Engine.with_category engine Engine.Profiler.Kernel (fun () ->
                  Engine.advance engine a;
                  Engine.with_category engine Engine.Profiler.Wire (fun () ->
                      Engine.advance engine b))
          | _ -> Engine.run_until engine (Engine.now engine + a))
        ops;
      Engine.run_until_idle engine;
      Profiler.sum (Engine.profile engine) = Engine.now engine)
  |> qtest

(* the same invariant over a real workload harness: every engine a
   report tracked ends with totals summing to its elapsed cycles *)
let test_report_breakdown_matches_engines () =
  let r = Udma_workloads.Exp_send.report_costs () in
  match r.Report.breakdown with
  | None -> Alcotest.fail "report has no breakdown"
  | Some totals -> checkb "non-empty" true (Profiler.sum totals > 0)

let () =
  Alcotest.run "udma_obs"
    [
      ( "json",
        [
          Alcotest.test_case "emit" `Quick test_json_emit;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "float round-trip corners" `Quick
            test_json_float_roundtrip_cases;
          Alcotest.test_case "of_file errors" `Quick test_json_of_file;
          prop_json_roundtrip;
          prop_json_parse_total;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
          Alcotest.test_case "custom buckets" `Quick
            test_histogram_custom_buckets;
          Alcotest.test_case "percentile" `Quick test_histogram_percentile;
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          prop_handles_match_names;
          Alcotest.test_case "unbumped handle is invisible" `Quick
            test_unbumped_handle_invisible;
          Alcotest.test_case "read by handle creates nothing" `Quick
            test_read_by_handle;
          Alcotest.test_case "handles share a cell" `Quick
            test_handles_share_a_cell;
          Alcotest.test_case "percentile agreement on exact edges" `Quick
            test_percentile_agreement_exact;
          Alcotest.test_case "percentile divergence on coarse buckets" `Quick
            test_percentile_divergence_coarse_buckets;
          prop_percentile_agreement;
          prop_percentile_upper_bound;
          Alcotest.test_case "link wait depth matches metric" `Quick
            test_link_wait_depth_matches_metric;
          Alcotest.test_case "read hook runs before every reader" `Quick
            test_read_hook_readers;
          Alcotest.test_case "read hook flushes before reset" `Quick
            test_read_hook_before_reset;
          Alcotest.test_case "idle read hook adds no name" `Quick
            test_read_hook_idle_adds_nothing;
          Alcotest.test_case "sample_n is n samples" `Quick
            test_sample_n_is_n_samples;
        ] );
      ( "report",
        [
          Alcotest.test_case "golden bench_json" `Quick test_report_golden_json;
          Alcotest.test_case "schema fields + breakdown sum" `Quick
            test_report_schema_fields;
          Alcotest.test_case "breakdown present" `Quick
            test_report_breakdown_matches_engines;
        ] );
      ( "events",
        [
          Alcotest.test_case "event json" `Quick test_event_json;
          Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
        ] );
      ("profiler", [ prop_profiler_sums_to_now ]);
    ]
