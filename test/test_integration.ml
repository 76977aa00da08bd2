(* Cross-module integration tests: protection/isolation, experiment
   anchors from the paper, and mixed workloads. *)

module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Device = Udma_dma.Device
module Initiator = Udma.Initiator
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Vm = Udma_os.Vm
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module Kernel = Udma_os.Kernel
module Runner = Udma_workloads.Runner
module System = Udma_shrimp.System
module Messaging = Udma_shrimp.Messaging

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let pattern n seed = Bytes.init n (fun i -> Char.chr ((i + seed) land 0xff))

(* ---------- protection / isolation ---------- *)

let test_ungranted_device_proxy_faults () =
  let m = M.create () in
  let udma = Option.get m.M.udma in
  let port, _ = Device.buffer "d" ~size:65536 in
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
  let evil = Scheduler.spawn m ~name:"evil" in
  let cpu = Kernel.user_cpu m evil in
  (* no grant: storing to device proxy must segfault, not reach the
     hardware *)
  checkb "segfaults" true
    (try
       cpu.Initiator.store ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0) 64l;
       false
     with Vm.Segfault _ -> true);
  checki "hardware untouched" 0 (Udma_engine.counters udma).Udma_engine.initiations

let test_readonly_grant_blocks_sends () =
  let m = M.create () in
  let udma = Option.get m.M.udma in
  let port, _ = Device.buffer "d" ~size:65536 in
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
  let p = Scheduler.spawn m ~name:"p" in
  (* read-only device grant (§4: "whether the permission is read-only") *)
  (match Syscall.map_device_proxy m p ~vdev_index:0 ~pdev_index:0 ~writable:false with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grant failed");
  let cpu = Kernel.user_cpu m p in
  checkb "store blocked" true
    (try
       cpu.Initiator.store ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0) 64l;
       false
     with Vm.Segfault _ -> true)

let test_process_cannot_name_others_memory () =
  (* p2 cannot use p1's memory as a transfer source: the proxy of an
     address p2 has no mapping for faults as illegal (§6 case 3) *)
  let m = M.create () in
  let udma = Option.get m.M.udma in
  let port, store = Device.buffer "d" ~size:65536 in
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
  let p1 = Scheduler.spawn m ~name:"victim" in
  let p2 = Scheduler.spawn m ~name:"evil" in
  ignore (Syscall.map_device_proxy m p2 ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let secret = Kernel.alloc_buffer m p1 ~bytes:4096 in
  Kernel.write_user m p1 ~vaddr:secret (Bytes.of_string "top-secret-data!");
  let cpu2 = Kernel.user_cpu m p2 in
  (* p2 issues the STORE (legal: it owns the device grant) and then
     tries to LOAD from the proxy of p1's buffer address; in p2's
     address space that page is unmapped, so the proxy fault is an
     illegal access *)
  cpu2.Initiator.store ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0) 16l;
  checkb "cross-process source segfaults" true
    (try
       ignore (cpu2.Initiator.load ~vaddr:(Layout.proxy_of m.M.layout secret));
       false
     with Vm.Segfault _ -> true);
  Engine.run_until_idle m.M.engine;
  checkb "no secret bytes leaked" true
    (Bytes.to_string (Bytes.sub store 0 16) <> "top-secret-data!")

let test_same_address_different_processes () =
  (* the same virtual address in two processes names different frames,
     and UDMA follows the mappings, not the numbers *)
  let m = M.create () in
  let udma = Option.get m.M.udma in
  let port, store = Device.buffer "d" ~size:65536 in
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
  let p1 = Scheduler.spawn m ~name:"p1" in
  let p2 = Scheduler.spawn m ~name:"p2" in
  ignore (Syscall.map_device_proxy m p1 ~vdev_index:0 ~pdev_index:0 ~writable:true);
  ignore (Syscall.map_device_proxy m p2 ~vdev_index:1 ~pdev_index:1 ~writable:true);
  let b1 = Kernel.alloc_buffer m p1 ~bytes:4096 in
  let b2 = Kernel.alloc_buffer m p2 ~bytes:4096 in
  checki "same virtual address" b1 b2;
  Kernel.write_user m p1 ~vaddr:b1 (Bytes.of_string "process-one-data");
  Kernel.write_user m p2 ~vaddr:b2 (Bytes.of_string "process-two-data");
  let send proc dev_page =
    let cpu = Kernel.user_cpu m proc in
    match
      Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory b1)
        ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:dev_page ~offset:0))
        ~nbytes:16 ()
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "send: %a" Initiator.pp_error e
  in
  send p1 0;
  send p2 1;
  Engine.run_until_idle m.M.engine;
  Alcotest.check Alcotest.string "p1's bytes via p1's grant" "process-one-data"
    (Bytes.to_string (Bytes.sub store 0 16));
  Alcotest.check Alcotest.string "p2's bytes via p2's grant" "process-two-data"
    (Bytes.to_string (Bytes.sub store 4096 16))

(* ---------- experiment anchors from the paper ---------- *)

module Report = Udma_obs.Report

(* numeric field of a report row *)
let num row field =
  match List.assoc_opt field row with
  | Some (Report.Int i) -> float_of_int i
  | Some (Report.Float f) -> f
  | _ -> Alcotest.failf "field %s missing" field

(* the row whose [key] field equals [v] *)
let row_where (r : Report.t) key v =
  let matches row = List.assoc_opt key row = Some v in
  match List.find_opt matches r.Report.rows with
  | Some row -> row
  | None -> Alcotest.failf "%s: no row with that %s" r.Report.id key

let test_figure8_anchors () =
  let r = Runner.report_figure8 ~messages:16 () in
  let pct size = num (row_where r "size" (Report.Int size)) "pct_of_max" in
  (* §8: "exceeds 50% of the maximum measured at a message size of
     only 512 bytes" *)
  checkb
    (Printf.sprintf "512B >= 50%% (got %.1f)" (pct 512))
    true
    (pct 512 >= 50.0);
  (* §8: a single page achieves 94%; we require the same ballpark *)
  checkb
    (Printf.sprintf "4K in [90,100] (got %.1f)" (pct 4096))
    true
    (pct 4096 >= 90.0);
  (* the dip after one page *)
  checkb
    (Printf.sprintf "dip after 4K (%.1f -> %.1f)" (pct 4096) (pct 4608))
    true
    (pct 4608 < pct 4096);
  (* max sustained for messages exceeding 8K *)
  checkb
    (Printf.sprintf "8K near max (got %.1f)" (pct 8192))
    true
    (pct 8192 >= 95.0);
  (* monotone rise below a page *)
  checkb "monotone rise to 4K" true (pct 64 < pct 512 && pct 512 < pct 4096)

let test_initiation_cost_anchor () =
  let r = Runner.report_costs () in
  let find label = row_where r "label" (Report.Str label) in
  let udma = find "UDMA initiation (2 refs + check)" in
  (* §8: about 2.8 microseconds *)
  checkb
    (Printf.sprintf "2.8us (got %.2f)" (num udma "us"))
    true
    (num udma "us" > 2.2 && num udma "us" < 3.4);
  let trad = find "traditional 4 KB transfer (pin)" in
  checkb "traditional is 10x+ the UDMA initiation" true
    (num trad "cycles" > 10.0 *. num udma "cycles")

let test_hippi_anchor () =
  let r = Runner.report_hippi () in
  let at block = num (row_where r "block" (Report.Int block)) "mbytes_per_s" in
  (* §1: "With a data block size of 1 Kbyte, the transfer rate achieved
     is only 2.7 MByte/sec, which is less than 2% of the raw hardware
     bandwidth" (we land within a factor ~1.5 and under 4%) *)
  checkb
    (Printf.sprintf "1KB ~2.7MB/s (got %.2f)" (at 1024))
    true
    (at 1024 > 1.8 && at 1024 < 4.0);
  (* §1: 80 MB/s requires large blocks *)
  checkb "64KB still below 80MB/s" true (at 65536 < 80.0);
  checkb "256KB reaches ~80MB/s" true (at 262144 >= 78.0)

let test_crossover_anchor () =
  let r = Runner.report_crossover ~sizes:[ 16; 4096 ] ~trials:3 () in
  let at size field = num (row_where r "size" (Report.Int size)) field in
  (* §9: FIFO interfaces win small messages, DMA wins long ones *)
  checkb "PIO wins at 16B" true (at 16 "pio_cycles" < at 16 "udma_cycles");
  checkb "UDMA wins at 4KB by a lot" true
    (at 4096 "pio_cycles" > 5.0 *. at 4096 "udma_cycles")

let test_queueing_anchor () =
  let r = Runner.report_queueing ~total_sizes:[ 65536 ] ~depths:[ 4 ] () in
  match r.Report.rows with
  | [ row ] ->
      checkb "queueing beats basic for multi-page transfers" true
        (num row "depth_4" < num row "basic_cycles")
  | _ -> Alcotest.fail "expected one row"

let test_atomicity_never_violates () =
  let r = Runner.report_atomicity ~probs_pct:[ 0; 25; 50 ] ~transfers:100 () in
  List.iter
    (fun row ->
      let pct = num row "preempt_pct" in
      checki
        (Printf.sprintf "violations at %.0f%%" pct)
        0
        (int_of_float (num row "violations"));
      if pct = 0.0 then
        checki "no retries without preemption" 0
          (int_of_float (num row "retries"))
      else checkb "preemption causes retries" true (num row "retries" > 0.0))
    r.Report.rows

let test_i3_policy_anchor () =
  let r = Runner.report_i3 ~transfers:32 ~pages:4 () in
  match r.Report.rows with
  | [ upgrade; union ] ->
      checkb "union takes fewer proxy faults" true
        (num union "proxy_faults" < num upgrade "proxy_faults");
      checki "union takes no upgrades" 0 (int_of_float (num union "upgrades"));
      checkb "upgrade policy re-faults after every clean" true
        (num upgrade "upgrades" >= 28.0)
  | _ -> Alcotest.fail "expected two rows"

let test_update_strategy_anchor () =
  let r = Runner.report_updates () in
  let find w = row_where r "workload" (Report.Str w) in
  let scattered = find "32 scattered single-word updates" in
  (* automatic update has no initiation cost: scattered word updates
     are at least an order of magnitude cheaper on the sending CPU *)
  checkb "automatic wins scattered updates" true
    (num scattered "automatic_cycles" *. 10.0
    < num scattered "deliberate_cycles");
  let bulk = find "one 4 KB sequential region" in
  (* deliberate update ships bulk data in far fewer packets *)
  checkb "deliberate wins bulk packet count" true
    (num bulk "deliberate_packets" *. 10.0 <= num bulk "automatic_packets")

(* ---------- the registry's anchors ---------- *)

module Json = Udma_obs.Json

(* the committed baseline: next to the test directory under
   `dune runtest`, in the working directory when run from the root *)
let baseline =
  lazy
    (let path =
       List.find Sys.file_exists
         [ "../BENCH_baseline.json"; "BENCH_baseline.json" ]
     in
     match Json.of_file path with
    | Ok doc -> doc
    | Error msg -> Alcotest.fail msg)

let quick_reports = lazy (Runner.all_reports ~quick:true ())

let test_anchors_resolve_on_baseline () =
  checki "22 anchors declared" 22 (List.length Runner.anchors);
  List.iter
    (fun (a : Report.anchor) ->
      checkb (a.Report.name ^ " resolves") true
        (Report.anchor_value (Lazy.force baseline) a <> None))
    Runner.anchors

(* every anchor reads the same number from a quick run's in-memory
   document as from its serialized and re-parsed text *)
let test_anchor_values_survive_serialization () =
  let in_memory = Report.bench_json (Lazy.force quick_reports) in
  let parsed =
    match Json.parse (Json.to_string ~indent:2 in_memory) with
    | Ok doc -> doc
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (a : Report.anchor) ->
      let v = Report.anchor_value in_memory a in
      checkb (a.Report.name ^ " read back exactly") true
        (v <> None && Report.anchor_value parsed a = v))
    Runner.anchors

(* the baseline with [a]'s value scaled by [factor] wherever [a] reads
   it (a row is rewritten when the anchor, read from that row alone,
   resolves) *)
let move_anchor doc (a : Report.anchor) factor =
  let obj f = function Json.Obj fields -> Json.Obj (List.map f fields) | v -> v in
  let scale (k, v) =
    match v with
    | (Json.Int _ | Json.Float _) when k = a.Report.field ->
        (k, Json.Float (Option.get (Json.number v) *. factor))
    | _ -> (k, v)
  in
  let id = ("id", Json.Str a.Report.report) in
  let reads row =
    let alone = Json.Obj [ id; ("rows", Json.List [ row ]) ] in
    Report.anchor_value (Json.Obj [ ("experiments", Json.List [ alone ]) ]) a
    <> None
  in
  let experiment e =
    if Json.member "id" e <> Some (snd id) then e
    else
      obj
        (fun (k, v) ->
          match (k, a.Report.select) with
          | "meta", Report.Meta -> (k, obj scale v)
          | "rows", Report.Row _ ->
              let move r = if reads r then obj scale r else r in
              (k, Json.List (List.map move (Json.to_list v)))
          | _ -> (k, v))
        e
  in
  obj
    (fun (k, v) ->
      if k = "experiments" then
        (k, Json.List (List.map experiment (Json.to_list v)))
      else (k, v))
    doc

let test_anchor_drift_gate () =
  let base = Lazy.force baseline in
  let gate current =
    Result.is_ok
      (Report.check ~tolerance:0.02 Runner.anchors ~baseline:base current)
  in
  checkb "the baseline passes against itself" true (gate base);
  List.iter
    (fun (a : Report.anchor) ->
      checkb (a.Report.name ^ " moved 1% passes") true
        (gate (move_anchor base a 1.01));
      checkb (a.Report.name ^ " moved 3% fails") false
        (gate (move_anchor base a 1.03)))
    Runner.anchors

(* ---------- mixed workloads ---------- *)

let test_messaging_under_memory_pressure () =
  (* sender keeps messaging while a hog forces paging on its node;
     every message must still arrive intact (I2/I4 at work) *)
  let config = { M.default_config with M.mem_pages = 32 } in
  let sys =
    System.create
      ~config:{ System.default_config with System.machine = config }
      ~nodes:2 ()
  in
  let snd = System.node sys 0 in
  let sp = Scheduler.spawn snd.System.machine ~name:"s" in
  let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"r" in
  let hog = Scheduler.spawn snd.System.machine ~name:"hog" in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  for round = 1 to 12 do
    let data = pattern 1024 round in
    Scheduler.switch_to snd.System.machine sp;
    Kernel.write_user snd.System.machine sp ~vaddr:buf data;
    (* memory pressure between sends *)
    ignore (Kernel.alloc_buffer snd.System.machine hog ~bytes:(3 * 4096));
    let seq =
      match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes:1024 () with
      | Ok seq -> seq
      | Error e -> Alcotest.failf "send %d: %a" round Messaging.pp_send_error e
    in
    (match Messaging.recv_wait ch cpu_r ~seq () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    Alcotest.check Alcotest.bytes
      (Printf.sprintf "round %d intact" round)
      data
      (Bytes.sub (Messaging.read_payload ch ~len:1024) 0 1024)
  done;
  checkb "paging actually happened" true
    (Udma_obs.Metrics.get snd.System.machine.M.metrics "vm.evictions" > 0)

let test_concurrent_channels_interleave () =
  (* two senders on one node share the UDMA engine; the basic hardware
     serialises them but both make progress *)
  let sys = System.create ~nodes:2 () in
  let snd = System.node sys 0 in
  let s1 = Scheduler.spawn snd.System.machine ~name:"s1" in
  let s2 = Scheduler.spawn snd.System.machine ~name:"s2" in
  let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"r" in
  let ch1 =
    Messaging.connect sys ~sender:(0, s1) ~receiver:(1, rp) ~first_index:0
      ~pages:1 ()
  in
  let ch2 =
    Messaging.connect sys ~sender:(0, s2) ~receiver:(1, rp) ~first_index:1
      ~pages:1 ()
  in
  let b1 = Kernel.alloc_buffer snd.System.machine s1 ~bytes:4096 in
  let b2 = Kernel.alloc_buffer snd.System.machine s2 ~bytes:4096 in
  Kernel.write_user snd.System.machine s1 ~vaddr:b1 (pattern 256 1);
  Kernel.write_user snd.System.machine s2 ~vaddr:b2 (pattern 256 2);
  let c1 = Kernel.user_cpu snd.System.machine s1 in
  let c2 = Kernel.user_cpu snd.System.machine s2 in
  let cr = Kernel.user_cpu (System.node sys 1).System.machine rp in
  for _ = 1 to 5 do
    let q1 =
      match Messaging.send ch1 c1 ~src_vaddr:b1 ~nbytes:256 () with
      | Ok q -> q
      | Error e -> Alcotest.failf "s1: %a" Messaging.pp_send_error e
    in
    let q2 =
      match Messaging.send ch2 c2 ~src_vaddr:b2 ~nbytes:256 () with
      | Ok q -> q
      | Error e -> Alcotest.failf "s2: %a" Messaging.pp_send_error e
    in
    (match Messaging.recv_wait ch1 cr ~seq:q1 () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    match Messaging.recv_wait ch2 cr ~seq:q2 () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done;
  Alcotest.check Alcotest.bytes "ch1 payload" (pattern 256 1)
    (Bytes.sub (Messaging.read_payload ch1 ~len:256) 0 256);
  Alcotest.check Alcotest.bytes "ch2 payload" (pattern 256 2)
    (Bytes.sub (Messaging.read_payload ch2 ~len:256) 0 256)

(* ---------- several devices behind one UDMA engine ---------- *)

let test_multi_device_node () =
  (* one engine serves a frame buffer, a disk and a buffer device at
     disjoint device-proxy ranges; one process drives all three *)
  let module Frame_buffer = Udma_devices.Frame_buffer in
  let module Disk = Udma_devices.Disk in
  let m = M.create () in
  let udma = Option.get m.M.udma in
  let fb = Frame_buffer.create ~width:64 ~height:32 in
  let disk = Disk.create () in
  let port, store = Device.buffer "aux" ~size:(4 * 4096) in
  (* layout: fb pages [0..1], disk pages [8..23], buffer pages [32..35] *)
  let fb_pages = Frame_buffer.pages fb ~page_size:4096 in
  Udma_engine.attach_device udma ~base_page:0 ~pages:fb_pages
    ~port:(Frame_buffer.port fb) ();
  Udma_engine.attach_device udma ~base_page:8 ~pages:16 ~port:(Disk.port disk) ();
  Udma_engine.attach_device udma ~base_page:32 ~pages:4 ~port ();
  (* overlapping attachment is rejected *)
  checkb "overlap rejected" true
    (try
       Udma_engine.attach_device udma ~base_page:9 ~pages:1 ~port ();
       false
     with Invalid_argument _ -> true);
  let proc = Scheduler.spawn m ~name:"driver" in
  List.iter
    (fun i ->
      ignore (Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i ~writable:true))
    [ 0; 8; 32 ];
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let cpu = Kernel.user_cpu m proc in
  let send ~dev_index ~seed ~nbytes =
    Kernel.write_user m proc ~vaddr:buf (pattern nbytes seed);
    match
      Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
        ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:dev_index ~offset:0))
        ~nbytes ()
    with
    | Ok _ -> Engine.run_until_idle m.M.engine
    | Error e -> Alcotest.failf "dev %d: %a" dev_index Initiator.pp_error e
  in
  send ~dev_index:0 ~seed:1 ~nbytes:256;   (* 64 pixels *)
  send ~dev_index:8 ~seed:2 ~nbytes:4096;  (* disk block 0 *)
  send ~dev_index:32 ~seed:3 ~nbytes:512;  (* aux buffer *)
  Alcotest.check Alcotest.bytes "pixels" (pattern 256 1)
    (Bytes.sub (Frame_buffer.row fb ~y:0) 0 256);
  Alcotest.check Alcotest.bytes "disk block" (pattern 4096 2) (Disk.read_block disk 0);
  Alcotest.check Alcotest.bytes "aux" (pattern 512 3) (Bytes.sub store 0 512);
  (* access to a device-proxy page bound to nothing reports a device
     error, even though the grant exists *)
  ignore (Syscall.map_device_proxy m proc ~vdev_index:40 ~pdev_index:40 ~writable:true);
  Kernel.write_user m proc ~vaddr:buf (pattern 64 9);
  match
    Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
      ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:40 ~offset:0))
      ~nbytes:64 ()
  with
  | Error (Initiator.Hard_error st) ->
      checkb "unbound page reports device error" true
        (st.Udma.Status.device_error <> 0)
  | Ok _ -> Alcotest.fail "transfer to an unbound device page succeeded"
  | Error e -> Alcotest.failf "unexpected: %a" Initiator.pp_error e

(* ---------- completion polls: the bulk step is exact ---------- *)

(* Everything a completion probe can touch, after a send mix: the
   clock, the profiler, every counter, the TLBs, each transfer's
   statistics and the bytes that arrived. The bulk step must leave all
   of it as loading one probe at a time does. *)
type poll_outcome = {
  now : int;
  profile : (string * int) list;
  counters : (string * int) list list;
  tlbs : (int * int) list;
  stats : string list;
  received : bytes list;
}

let stats_line = function
  | Ok s ->
      Printf.sprintf "pieces %d, pairs %d, retries %d, polls %d, cycles %d"
        s.Initiator.pieces s.Initiator.pairs s.Initiator.retries
        s.Initiator.polls s.Initiator.cycles
  | Error e -> Format.asprintf "error: %a" Initiator.pp_error e

let poll_outcome engine machines results =
  let tlb m =
    let t = Udma_mmu.Mmu.tlb m.M.mmu in
    (Udma_mmu.Tlb.hits t, Udma_mmu.Tlb.misses t)
  in
  {
    now = Engine.now engine;
    profile = Udma_obs.Profiler.to_list (Engine.profile engine);
    counters =
      List.map Udma_obs.Metrics.counters
        (Engine.metrics engine :: List.map (fun m -> m.M.metrics) machines);
    tlbs = List.map tlb machines;
    stats = List.map (fun (r, _) -> stats_line r) results;
    received = List.map snd results;
  }

(* [proc]'s CPU, counting the loads that reach its machine. With
   [step_by_step], a preempt hook that never preempts is set: it rules
   the bulk step out and changes nothing else. *)
let polling_cpu ~step_by_step m proc loads =
  if step_by_step then Scheduler.set_preempt_hook m (Some (fun _ -> false));
  let cpu = Kernel.user_cpu m proc in
  {
    cpu with
    Initiator.load =
      (fun ~vaddr ->
        incr loads;
        cpu.Initiator.load ~vaddr);
  }

(* Sends on a 2-node system: contiguous ones from 4 B to 8 KB, two that
   cross a page (on the source, then on the destination side), a
   strided and a gather send — or, on queued hardware, pipelined and
   queued shaped ones. Each send is drained and the receive buffer read
   before the next. *)
let system_mix ~queued ~step_by_step =
  let config =
    if not queued then System.default_config
    else
      {
        System.default_config with
        System.machine =
          {
            M.default_config with
            M.udma_mode = Some (Udma_engine.Queued { depth = 4 });
          };
      }
  in
  let sys = System.create ~config ~nodes:2 () in
  let snd = System.node sys 0 and rcv = System.node sys 1 in
  let m = snd.System.machine in
  let sp = Scheduler.spawn m ~name:"s" in
  let rp = Scheduler.spawn rcv.System.machine ~name:"r" in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:3 () in
  let buf = Kernel.alloc_buffer m sp ~bytes:(3 * 4096) in
  Kernel.write_user m sp ~vaddr:buf (pattern (3 * 4096) 11);
  let loads = ref 0 in
  let cpu = polling_cpu ~step_by_step m sp loads in
  let layout = m.M.layout in
  let src off = Initiator.Memory (buf + off) in
  let dst off = Initiator.Device (Messaging.dev_vaddr ch ~offset:off) in
  let contig transfer (s, d, nbytes) () =
    transfer cpu ~layout ?config:None ~src:(src s) ~dst:(dst d) ~nbytes ()
  in
  let shaped shape nbytes () =
    Initiator.transfer_shaped cpu ~layout ~queued ~src:(src 0) ~dst:(dst 0)
      ~shape ~nbytes ()
  in
  let strided = shaped (Initiator.Strided_shape { stride = 16; chunk = 8 }) 512 in
  let sends =
    if queued then
      List.map
        (contig Initiator.transfer_queued)
        [ (0, 0, 64); (0, 0, 8192); (100, 0, 6000); (0, 4000, 512) ]
      @ [ strided ]
    else
      List.map
        (contig Initiator.transfer)
        [ (0, 0, 4); (0, 0, 64); (0, 0, 512); (0, 0, 4096); (0, 0, 8192);
          (4000, 0, 512); (0, 4000, 512) ]
      @ [ strided;
          shaped
            (Initiator.Gather_shape [ (dst 1024, 256); (dst 2048, 128) ])
            640 ]
  in
  let results =
    List.map
      (fun send ->
        let r = send () in
        System.run_until_idle sys;
        (r, Messaging.read_payload ch ~len:(Messaging.capacity ch)))
      sends
  in
  (poll_outcome (System.engine sys) [ m; rcv.System.machine ] results, !loads)

(* Device-to-memory transfers (one crossing a page) and one back, on a
   machine with a buffer device. The last finds the engine busy with a
   kernel transfer, so its initiation polls until the engine is idle. *)
let device_mix ~step_by_step =
  let m = M.create () in
  let udma = Option.get m.M.udma in
  let port, store = Device.buffer "buf" ~size:(4 * 4096) in
  Bytes.blit (pattern (4 * 4096) 5) 0 store 0 (4 * 4096);
  Udma_engine.attach_device udma ~base_page:0 ~pages:4 ~port ();
  let proc = Scheduler.spawn m ~name:"p" in
  List.iter
    (fun i ->
      ignore
        (Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i
           ~writable:true))
    [ 0; 1; 2; 3 ];
  let buf = Kernel.alloc_buffer m proc ~bytes:(2 * 4096) in
  Kernel.touch_dirty m proc ~vaddr:buf;
  Kernel.touch_dirty m proc ~vaddr:(buf + 4096);
  let loads = ref 0 in
  let cpu = polling_cpu ~step_by_step m proc loads in
  let dev off =
    Initiator.Device
      (Kernel.vdev_addr m ~index:(off / 4096) ~offset:(off mod 4096))
  in
  let mem off = Initiator.Memory (buf + off) in
  let kernel_transfer () =
    match
      Udma_engine.enqueue_system udma
        ~src_proxy:(Layout.proxy_of m.M.layout (20 * 4096))
        ~dest_proxy:(Kernel.vdev_addr m ~index:3 ~offset:0) ~nbytes:4096
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "kernel transfer refused"
  in
  let results =
    List.map
      (fun (busy, src, dst, nbytes) ->
        if busy then kernel_transfer ();
        let r = Initiator.transfer cpu ~layout:m.M.layout ~src ~dst ~nbytes () in
        Engine.run_until_idle m.M.engine;
        ( r,
          Bytes.cat (Kernel.read_user m proc ~vaddr:buf ~len:(2 * 4096)) store ))
      [ (false, dev 0, mem 0, 4096); (false, dev 100, mem 2000, 6000);
        (false, mem 0, dev 8192, 1024); (true, mem 0, dev 8192, 2048) ]
  in
  (poll_outcome m.M.engine [ m ] results, !loads)

let check_poll_outcome name (step : poll_outcome) (bulk : poll_outcome) =
  let msg what = name ^ ": " ^ what in
  checki (msg "Engine.now") step.now bulk.now;
  Alcotest.(check (list (pair string int))) (msg "profiler totals") step.profile
    bulk.profile;
  Alcotest.(check (list (list (pair string int))))
    (msg "counters") step.counters bulk.counters;
  Alcotest.(check (list (pair int int))) (msg "TLB hits, misses") step.tlbs
    bulk.tlbs;
  Alcotest.(check (list string)) (msg "Initiator.stats") step.stats bulk.stats;
  Alcotest.(check (list bytes)) (msg "received bytes") step.received
    bulk.received

let test_bulk_poll_exact () =
  List.iter
    (fun (name, mix) ->
      let bulk, bulk_loads = mix ~step_by_step:false in
      let step, step_loads = mix ~step_by_step:true in
      check_poll_outcome name step bulk;
      Printf.printf "%s: %d loads reach the machine, %d step by step\n" name
        bulk_loads step_loads;
      List.iter (Printf.printf "  %s\n") bulk.stats;
      if bulk_loads >= step_loads then
        Alcotest.failf "%s: the bulk step was never taken (%d loads, %d step by step)"
          name bulk_loads step_loads)
    [
      ("basic", system_mix ~queued:false);
      ("queued", system_mix ~queued:true);
      ("device", device_mix);
    ]

(* A probe the bulk step does not cover still allocates only its boxed
   status word. *)
let probe_words_max = 5.0

let test_probe_alloc_bound () =
  let m = M.create () in
  let udma = Option.get m.M.udma in
  let port, _ = Device.buffer "d" ~size:(4 * 4096) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:4 ~port ();
  let proc = Scheduler.spawn m ~name:"p" in
  ignore
    (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:buf (pattern 4096 1);
  let cpu = Kernel.user_cpu m proc in
  (match
     Initiator.initiation_cycles cpu ~layout:m.M.layout
       ~config:Initiator.default_config ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~nbytes:4096
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "initiation failed: %a" Initiator.pp_error e);
  let probe = Layout.proxy_of m.M.layout buf in
  let rounds = 40 in
  ignore (cpu.Initiator.load ~vaddr:probe);
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (cpu.Initiator.load ~vaddr:probe)
  done;
  let per_probe = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Printf.printf "probe guard: %.2f minor words per real probe\n" per_probe;
  checkb "every probe met the transfer in flight" true
    (Udma.Status.has Udma.Status.Matches (cpu.Initiator.load ~vaddr:probe));
  if per_probe > probe_words_max then
    Alcotest.failf "%.2f minor words per probe > %.2f" per_probe probe_words_max

let () =
  Alcotest.run "udma_integration"
    [
      ( "protection",
        [
          Alcotest.test_case "ungranted device proxy faults" `Quick
            test_ungranted_device_proxy_faults;
          Alcotest.test_case "read-only grant blocks sends" `Quick
            test_readonly_grant_blocks_sends;
          Alcotest.test_case "cannot name another's memory" `Quick
            test_process_cannot_name_others_memory;
          Alcotest.test_case "same vaddr, different processes" `Quick
            test_same_address_different_processes;
        ] );
      ( "paper-anchors",
        [
          Alcotest.test_case "Figure 8 shape" `Slow test_figure8_anchors;
          Alcotest.test_case "2.8us initiation" `Quick test_initiation_cost_anchor;
          Alcotest.test_case "HIPPI motivation" `Quick test_hippi_anchor;
          Alcotest.test_case "PIO crossover" `Slow test_crossover_anchor;
          Alcotest.test_case "queueing wins" `Slow test_queueing_anchor;
          Alcotest.test_case "I1 never violated" `Slow test_atomicity_never_violates;
          Alcotest.test_case "I3 policies trade faults" `Quick
            test_i3_policy_anchor;
          Alcotest.test_case "update strategies crossover" `Quick
            test_update_strategy_anchor;
        ] );
      ( "anchors",
        [
          Alcotest.test_case "every anchor resolves on BENCH_baseline.json"
            `Quick test_anchors_resolve_on_baseline;
          Alcotest.test_case "quick-run anchors survive serialize/parse" `Slow
            test_anchor_values_survive_serialization;
          Alcotest.test_case "1% drift passes, 3% fails" `Quick
            test_anchor_drift_gate;
        ] );
      ( "bulk-poll",
        [
          Alcotest.test_case "bulk step = step by step" `Quick
            test_bulk_poll_exact;
          Alcotest.test_case "real probe allocation bounded" `Quick
            test_probe_alloc_bound;
        ] );
      ( "multi-device",
        [ Alcotest.test_case "three devices, one engine" `Quick test_multi_device_node ] );
      ( "mixed",
        [
          Alcotest.test_case "messaging under memory pressure" `Slow
            test_messaging_under_memory_pressure;
          Alcotest.test_case "concurrent channels" `Quick
            test_concurrent_channels_interleave;
        ] );
    ]
