(* The four benchmark workloads. An episode builds its inputs from the
   seed, drives one public entry point of lib/app, lib/traffic or
   lib/shrimp, and returns three things: the simulated outputs (which
   must repeat exactly for a seed), host timings split at the first
   simulated cycle of the measured work, and the work counts each layer
   publishes through its own counters. *)

module Json = Udma_obs.Json
module Metrics = Udma_obs.Metrics
module Profiler = Udma_obs.Profiler
module Engine = Udma_sim.Engine
module Rng = Udma_sim.Rng
module Tlb = Udma_mmu.Tlb
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Kernel = Udma_os.Kernel
module System = Udma_shrimp.System
module Messaging = Udma_shrimp.Messaging
module Kv = Udma_app.Kv
module Fabric = Udma_app.Fabric
module Slo = Udma_app.Slo
module Load_gen = Udma_traffic.Load_gen
module Sweep = Udma_traffic.Sweep
module Shard_gen = Udma_traffic.Shard_gen
module Pattern = Udma_traffic.Pattern
module Arrival = Udma_traffic.Arrival

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* spans and counts                                                    *)
(* ------------------------------------------------------------------ *)

(* Spans around the benchmark's own calls into the program, kept in
   memory and written out when the run ends. Times are seconds since
   the episode started. *)
type span = { name : string; start : float; stop : float }

type recorder = { origin : float; mutable spans : span list }

let recorder () = { origin = now (); spans = [] }

let mark r name ~start ~stop =
  r.spans <- { name; start = start -. r.origin; stop = stop -. r.origin } :: r.spans

let span r name f =
  let start = now () in
  let x = f () in
  mark r name ~start ~stop:(now ());
  x

(* Layer work counts over an episode's run phase, by name. A count the
   workload's entry point does not let the benchmark observe is
   absent, and reads as 0. *)
type counts = (string * float) list

let count (c : counts) name = Option.value (List.assoc_opt name c) ~default:0.0

(* A registry's counters split the way the reconciliation charges them:
   [engine.*] bumps are part of the measured cost of one engine event;
   counters that accumulate amounts through [Metrics.add] (bytes,
   cycles, flits) are not one update per unit and are left out; every
   other counter's value is its number of updates. *)
let amount_counter name =
  let has sub =
    let n = String.length name and k = String.length sub in
    let rec go i = i + k <= n && (String.sub name i k = sub || go (i + 1)) in
    go 0
  in
  has "bytes" || has "cycles" || name = "net.flit.injected"

let observations reg =
  List.fold_left
    (fun a (_, (h : Metrics.histogram)) -> a + h.Metrics.count)
    0 (Metrics.histograms reg)

(* Counter values and histogram counts, to diff against later. *)
type snapshot = {
  s_regs : (string * int) list list;
  s_hist : int;
  s_gc : Gc.stat;
}

let snap regs =
  {
    s_regs = List.map Metrics.counters regs;
    s_hist = List.fold_left (fun a r -> a + observations r) 0 regs;
    s_gc = Gc.quick_stat ();
  }

let gc_counts (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  [
    ("minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
    ("major_words", g1.Gc.major_words -. g0.Gc.major_words);
    ( "major_collections",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
  ]

(* Registry work between [s0] and now. *)
let registry_counts s0 regs =
  let delta_of before reg =
    List.map
      (fun (name, v) ->
        (name, v - Option.value (List.assoc_opt name before) ~default:0))
      (Metrics.counters reg)
  in
  let deltas = List.concat (List.map2 delta_of s0.s_regs regs) in
  let upd, eng =
    List.fold_left
      (fun (upd, eng) (name, v) ->
        if String.length name >= 7 && String.sub name 0 7 = "engine." then
          (upd, eng + v)
        else if amount_counter name then (upd, eng)
        else (upd + v, eng))
      (0, 0) deltas
  in
  let obs = List.fold_left (fun a r -> a + observations r) 0 regs - s0.s_hist in
  let get name =
    float_of_int
      (List.fold_left
         (fun a (n, v) -> if n = name then a + v else a)
         0 deltas)
  in
  ( [
      ("events", get "engine.events_fired");
      ("counter_updates", float_of_int upd);
      ("engine_updates", float_of_int eng);
      ("observations", float_of_int obs);
    ],
    get )

(* ------------------------------------------------------------------ *)
(* episodes                                                            *)
(* ------------------------------------------------------------------ *)

type episode = {
  attempted : int;  (** ops the episode tried *)
  completed : int;  (** ops that finished; the throughput numerator *)
  failed : int;  (** from the layers' own counters *)
  outputs : (string * Json.t) list;  (** simulated results, exact *)
  setup_s : float;  (** host time before the first measured cycle *)
  run_s : float;  (** host time of the measured work *)
  spans : span list;
  counts : counts;
  counter_names : string list;  (** names in the workload's registries *)
}

let lat_fields prefix (s : Slo.stats) =
  [
    (prefix ^ "samples", Json.Int s.Slo.count);
    (prefix ^ "p50", Json.Int s.Slo.p50);
    (prefix ^ "p99", Json.Int s.Slo.p99);
    (prefix ^ "p999", Json.Int s.Slo.p999);
  ]

let profile_fields e =
  List.map
    (fun (name, cycles) -> ("cycles." ^ name, Json.Int cycles))
    (Profiler.to_list (Engine.profile e))

let names_of regs =
  List.sort_uniq compare
    (List.concat_map (fun r -> List.map fst (Metrics.counters r)) regs)

(* -------------------------- kv_hotshard --------------------------- *)

let kv_config ~seed ~window =
  {
    Kv.default_config with
    Kv.fabric =
      {
        Fabric.default_config with
        Fabric.nodes = 16;
        vc_count = 4;
        rx_credits = Some 8;
        link_per_word = 2;
        seed;
      };
    clients_per_node = 4;
    value_bytes = 2048;
    write_pct = 50;
    hot_pct = 25;
    load = 0.6;
    window_cycles = window;
  }

let kv_hotshard ~window ~seed =
  let r = recorder () in
  let engine = ref None and probed = ref 0.0 and s0 = ref None in
  let t0 = now () in
  let res =
    Kv.run
      ~probe:(fun e ->
        probed := now ();
        engine := Some e;
        s0 := Some (snap [ Engine.metrics e ]))
      (kv_config ~seed ~window)
  in
  let t1 = now () in
  mark r "create" ~start:t0 ~stop:!probed;
  mark r "run" ~start:!probed ~stop:t1;
  let e = Option.get !engine in
  let regs = [ Engine.metrics e ] in
  let s0 = Option.get !s0 in
  let reg, get = registry_counts s0 regs in
  let failed =
    if res.Kv.drained then res.Kv.issued - res.Kv.completed else res.Kv.issued
  in
  {
    attempted = res.Kv.issued;
    completed = res.Kv.completed;
    failed;
    outputs =
      [
        ("issued", Json.Int res.Kv.issued);
        ("completed", Json.Int res.Kv.completed);
        ("reads", Json.Int res.Kv.reads);
        ("writes", Json.Int res.Kv.writes);
        ("deliveries", Json.Int (Metrics.get (Engine.metrics e) "app.delivered"));
        ("send_cycles", Json.Int res.Kv.send_cycles);
        ("think_cycles", Json.Int res.Kv.think_cycles);
        ("credit_stalls", Json.Int res.Kv.credit_stalls);
        ("drained", Json.Bool res.Kv.drained);
        ("end_cycle", Json.Int (Engine.now e));
      ]
      @ lat_fields "latency." res.Kv.stats
      @ lat_fields "cold_latency." res.Kv.cold_stats
      @ profile_fields e;
    setup_s = !probed -. t0;
    run_s = t1 -. !probed;
    spans = List.rev r.spans;
    counts =
      reg
      @ [
          (* one message is one packet: the fabric's launch and deposit
             counters are the router's packets and the NIs' deposits *)
          ("packets", get "app.launched");
          ("ni_deposits", get "app.delivered");
        ]
      @ gc_counts s0.s_gc;
    counter_names = names_of regs;
  }

(* --------------------------- mesh_flit ---------------------------- *)

let flit_bytes = 2048

let flit_config ~seed ~window ~send_cycles =
  {
    Load_gen.default_config with
    Load_gen.nodes = 16;
    pattern = Pattern.Hotspot { node = 0; pct = 25 };
    arrival =
      Arrival.Poisson { per_kcycle = 0.5 *. 1000.0 /. float_of_int send_cycles };
    msg_bytes = flit_bytes;
    crossing = `Flit;
    flit_words = 1;
    vc_count = 2;
    rx_credits = Some 8;
    link_per_word = 2;
    window_cycles = window;
    seed;
  }

let load_gen_outputs (res : Load_gen.result) =
  let n = Array.length res.Load_gen.latencies in
  [
    ("injected", Json.Int res.Load_gen.injected);
    ("launched", Json.Int res.Load_gen.launched);
    ("delivered_in_window", Json.Int res.Load_gen.delivered);
    ("send_cycles", Json.Int res.Load_gen.send_cycles);
    ("latency.samples", Json.Int n);
    ("latency.p50", Json.Int (Load_gen.percentile_sorted res.Load_gen.latencies 50.0));
    ("latency.p99", Json.Int (Load_gen.percentile_sorted res.Load_gen.latencies 99.0));
    ("latency.p999", Json.Int (Load_gen.percentile_sorted res.Load_gen.latencies 99.9));
    ("latency.mean", Json.Float res.Load_gen.mean_latency);
    ("link_wait_cycles", Json.Int res.Load_gen.link_wait_cycles);
  ]

let mesh_flit ~window ~seed =
  let r = recorder () in
  let engine = ref None and probed = ref 0.0 and s0 = ref None in
  let t0 = now () in
  (* the rate is planned against a fresh calibration, as Sweep.run does *)
  let send_cycles =
    span r "calibrate" (fun () -> Load_gen.calibrate ~msg_bytes:flit_bytes ())
  in
  let t_cal = now () in
  let res =
    Load_gen.run
      ~probe:(fun e ->
        probed := now ();
        engine := Some e;
        s0 := Some (snap [ Engine.metrics e ]))
      (flit_config ~seed ~window ~send_cycles)
  in
  let t1 = now () in
  mark r "create" ~start:t_cal ~stop:!probed;
  mark r "run" ~start:!probed ~stop:t1;
  let e = Option.get !engine in
  let em = Engine.metrics e in
  let s0 = Option.get !s0 in
  let reg, get = registry_counts s0 [ em ] in
  (* launched minus received, in flits: every message is one worm of
     [worm] flits, so flits still in the network after the drain are
     whole messages lost *)
  let launched = res.Load_gen.launched in
  let worm = (flit_bytes + Udma_shrimp.Packet.header_bytes + 3) / 4 in
  let flits_in = Metrics.get em "net.flit.injected"
  and flits_out = Metrics.get em "net.flit.delivered" in
  let failed = min launched ((flits_in - flits_out + worm - 1) / worm) in
  {
    attempted = launched;
    completed = launched - failed;
    failed;
    outputs =
      load_gen_outputs res
      @ [
          ("flits_delivered", Json.Int flits_out);
          ("flit_hol_cycles", Json.Int res.Load_gen.flit_hol_cycles);
          ("end_cycle", Json.Int (Engine.now e));
        ]
      @ profile_fields e;
    setup_s = !probed -. t0;
    run_s = t1 -. !probed;
    spans = List.rev r.spans;
    counts =
      reg
      @ [
          ("packets", get "traffic.launched");
          ("ni_deposits", get "traffic.launched");
          ("flit_grants", get "net.flit.grants");
        ]
      @ gc_counts s0.s_gc;
    counter_names = names_of [ em ];
  }

(* -------------------------- mesh_sharded -------------------------- *)

let sharded_nodes = 256
let sharded_load = 0.9
let sharded_bytes = 256

(* One sweep point through the public entry point. With [~stats] the
   same point also runs through Shard_gen.run_stats, the only place the
   kernel counters are published, and must agree with the sweep. *)
let mesh_sharded ?(stats = false) ~domains ~window ~seed () =
  let r = recorder () in
  let t0 = now () in
  (* Sweep.run's first act is this calibration; timed on its own it is
     the set-up before the sweep's first simulated cycle *)
  let send_cycles =
    span r "calibrate" (fun () -> Load_gen.calibrate ~msg_bytes:sharded_bytes ())
  in
  let t_cal = now () in
  let g0 = Gc.quick_stat () in
  let outcome =
    span r "run" (fun () ->
        Sweep.run ~loads:[ sharded_load ] ~nodes:sharded_nodes
          ~msg_bytes:sharded_bytes ~window_cycles:window ~seed ~domains ())
  in
  let t1 = now () in
  let gc = gc_counts g0 in
  let res = (List.hd outcome.Sweep.points).Sweep.result in
  let kernel =
    if not stats then []
    else
      let cfg =
        {
          Load_gen.default_config with
          Load_gen.nodes = sharded_nodes;
          arrival =
            Arrival.Poisson
              { per_kcycle = sharded_load *. 1000.0 /. float_of_int send_cycles };
          msg_bytes = sharded_bytes;
          window_cycles = window;
          seed;
        }
      in
      let res', ks =
        span r "kernel_stats" (fun () ->
            Shard_gen.run_stats ~domains ~send_cycles cfg)
      in
      if load_gen_outputs res' <> load_gen_outputs res then
        failwith "mesh_sharded: Shard_gen.run_stats disagrees with Sweep.run";
      [
        ("events", float_of_int ks.Shard_gen.events);
        ("windows", float_of_int ks.Shard_gen.windows);
        ("cross_posts", float_of_int ks.Shard_gen.cross_posts);
      ]
  in
  {
    attempted = res.Load_gen.launched;
    completed = res.Load_gen.launched;
    (* the kernel drains every event before Sweep.run returns, so a
       launched message cannot stay undelivered; a wrong delivery shows
       up in the exact-output check instead *)
    failed = 0;
    outputs = load_gen_outputs res;
    setup_s = t_cal -. t0;
    run_s = t1 -. t_cal;
    spans = List.rev r.spans;
    counts = kernel @ gc;
    counter_names = [];
  }

(* -------------------------- udma_stream --------------------------- *)

let stream_sizes = [| 64; 512; 4096; 8192 |]

type op = Contig of int | Strided of { stride : int; chunk : int; nbytes : int }

(* Shaped-send geometries (chunk, stride, repetitions); each strided
   span stays within one page. *)
let strided_shapes =
  [| (4, 8, 256); (4, 16, 64); (8, 16, 128); (16, 32, 128); (32, 64, 32);
     (64, 128, 16); (128, 256, 8); (256, 512, 8) |]

(* Back-to-back sends in rounds of five: the four sizes and one shaped
   send, in an order the seed shuffles per round; successive shaped
   sends walk a seed-shuffled permutation of [strided_shapes]. The seed
   also fills the payload. Every episode of a given length thus does
   the same multiset of sends whatever the seed, so host cost per op
   does not depend on it. *)
let stream_ops ~seed ~sends =
  let rng = Rng.create seed in
  let shapes = Array.copy strided_shapes in
  Rng.shuffle rng shapes;
  let round = Array.make 5 (Contig 0) in
  let ops = Array.make sends (Contig 0) in
  for i = 0 to sends - 1 do
    if i mod 5 = 0 then begin
      Array.iteri (fun k n -> round.(k) <- Contig n) stream_sizes;
      let chunk, stride, reps = shapes.(i / 5 mod Array.length shapes) in
      round.(4) <- Strided { stride; chunk; nbytes = chunk * reps };
      Rng.shuffle rng round
    end;
    ops.(i) <- round.(i mod 5)
  done;
  ops

let op_kind = function
  | Contig n -> string_of_int n
  | Strided _ -> "strided"

let expected_payload src = function
  | Contig n -> Bytes.sub src 0 n
  | Strided { stride; chunk; nbytes } ->
      Bytes.init nbytes (fun j -> Bytes.get src ((j / chunk * stride) + (j mod chunk)))

let udma_stream ~sends ~seed =
  let r = recorder () in
  let ops = stream_ops ~seed ~sends in
  (* the last op of each kind is checked against the receive buffer *)
  let last = Hashtbl.create 8 in
  Array.iteri (fun i op -> Hashtbl.replace last (op_kind op) i) ops;
  let t0 = now () in
  let sys = span r "create" (fun () -> System.create ~nodes:2 ()) in
  let snd = System.node sys 0 and rcv = System.node sys 1 in
  let m = snd.System.machine in
  let page = 4096 in
  let src = Bytes.create (3 * page) in
  let rng = Rng.create (seed lxor 0x5eed) in
  Bytes.iteri (fun i _ -> Bytes.set src i (Char.chr (Rng.int rng 256))) src;
  let ch, cpu, buf =
    span r "connect" (fun () ->
        let sp = Scheduler.spawn m ~name:"stream-send" in
        let rp = Scheduler.spawn rcv.System.machine ~name:"stream-recv" in
        let ch =
          Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:3 ()
        in
        let buf = Kernel.alloc_buffer m sp ~bytes:(3 * page) in
        Kernel.write_user m sp ~vaddr:buf src;
        (ch, Kernel.user_cpu m sp, buf))
  in
  let send op =
    match op with
    | Contig nbytes -> Messaging.send_nowait ch cpu ~src_vaddr:buf ~nbytes ()
    | Strided { stride; chunk; nbytes } ->
        Result.map ignore
          (Messaging.send_strided ch cpu ~src_vaddr:buf ~stride ~chunk ~nbytes ())
  in
  let failed = ref 0 in
  (* warm the proxy mappings and the TLB, as the paper's measurement does *)
  span r "calibrate" (fun () ->
      (match send (Contig 8192) with Ok () -> () | Error _ -> incr failed);
      System.run_until_idle sys);
  let engine = System.engine sys in
  let regs = [ Engine.metrics engine; m.M.metrics; rcv.System.machine.M.metrics ] in
  let tlb = Udma_mmu.Mmu.tlb m.M.mmu in
  let hits0 = Tlb.hits tlb and misses0 = Tlb.misses tlb in
  let s0 = snap regs in
  let t_run = now () in
  let lats = Array.make sends 0 in
  let mismatches = ref 0 in
  Array.iteri
    (fun i op ->
      let c0 = Engine.now engine in
      (match send op with Ok () -> () | Error _ -> incr failed);
      lats.(i) <- Engine.now engine - c0;
      if Hashtbl.find last (op_kind op) = i then begin
        System.run_until_idle sys;
        let want = expected_payload src op in
        if
          not (Bytes.equal (Messaging.read_payload ch ~len:(Bytes.length want)) want)
        then incr mismatches
      end)
    ops;
  System.run_until_idle sys;
  let t1 = now () in
  mark r "run" ~start:t_run ~stop:t1;
  let reg, get = registry_counts s0 regs in
  let total = Slo.stats_of lats in
  let failed = !failed + !mismatches in
  {
    attempted = sends;
    completed = sends - failed;
    failed;
    outputs =
      [
        ("sends", Json.Int sends);
        ("bytes_sent", Json.Int (Metrics.get m.M.metrics "ni.bytes_sent"));
        ( "deliveries",
          Json.Int (Metrics.get rcv.System.machine.M.metrics "ni.packets_received") );
        ("initiations", Json.Int (Metrics.get m.M.metrics "udma.initiations"));
        ("end_cycle", Json.Int (Engine.now engine));
      ]
      @ lat_fields "send_cycles." total
      @ profile_fields engine;
    setup_s = t_run -. t0;
    run_s = t1 -. t_run;
    spans = List.rev r.spans;
    counts =
      reg
      @ [
          ("packets", get "ni.packets_sent");
          ("ni_deposits", get "ni.packets_received");
          ("initiations", get "udma.initiations");
          ("retries", get "udma.refused_full" +. get "udma.invals");
          ("probes", get "udma.probes");
          ("tlb_hits", float_of_int (Tlb.hits tlb - hits0));
          ("tlb_misses", float_of_int (Tlb.misses tlb - misses0));
          (* the proxy backend's datapath check is one device
             validation per initiation; it keeps no counter of its own *)
          ("protect_checks", get "udma.initiations");
          ("dma_transfers", get "dma.transfers");
          ("dma_bytes", get "dma.bytes_moved");
        ]
      @ gc_counts s0.s_gc;
    counter_names = names_of regs;
  }
