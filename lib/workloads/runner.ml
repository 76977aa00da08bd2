module Engine = Udma_sim.Engine
module Rng = Udma_sim.Rng
module Metrics = Udma_obs.Metrics
module Profiler = Udma_obs.Profiler
module Report = Udma_obs.Report
module Layout = Udma_mmu.Layout
module Bus = Udma_dma.Bus
module Device = Udma_dma.Device
module Status = Udma.Status
module Initiator = Udma.Initiator
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Proc = Udma_os.Proc
module Vm = Udma_os.Vm
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module Kernel = Udma_os.Kernel
module Cost_model = Udma_os.Cost_model
module System = Udma_shrimp.System
module Messaging = Udma_shrimp.Messaging
module Pio_fifo = Udma_devices.Pio_fifo
module Backend = Udma_protect.Backend
module Tenants = Udma_protect.Tenants

let pattern n = Bytes.init n (fun i -> Char.chr (i land 0xff))

let fail_transfer e = failwith (Format.asprintf "transfer: %a" Initiator.pp_error e)
let fail_syscall e = failwith (Format.asprintf "syscall: %a" Syscall.pp_error e)
let fail_send e = failwith (Format.asprintf "send: %a" Messaging.pp_send_error e)

(* ------------------------------------------------------------------ *)
(* engine probe: cycle attribution across a whole experiment           *)
(* ------------------------------------------------------------------ *)

(* Several experiments build a fresh machine (and engine) per data
   point; the probe collects every engine so the report's cycle
   breakdown spans the whole experiment, not just the last engine. *)
type probe = { mutable engines : Engine.t list }

let probe () = { engines = [] }

let watch p engine =
  if not (List.memq engine p.engines) then p.engines <- engine :: p.engines

let breakdown p =
  List.fold_left
    (fun acc e -> Profiler.add_totals acc (Engine.profile e))
    Profiler.zero p.engines

(* Report.value shorthands *)
let vi n = Report.Int n
let vf x = Report.Float x
let vs x = Report.Str x
let vb x = Report.Bool x

(* an optional value, or [none] when absent *)
let v_opt v none = function Some x -> v x | None -> vs none

(* ------------------------------------------------------------------ *)
(* the experiment declaration                                          *)
(* ------------------------------------------------------------------ *)

type experiment = {
  exp_name : string;
  exp_alias : string;
  exp_doc : string;
  exp_run : (quick:bool -> seed:int -> Report.t list) Param.args;
  exp_anchors : Report.anchor list;
}

let anchor name report select field = { Report.name; report; select; field }

(* ------------------------------------------------------------------ *)
(* E1 / Figure 8                                                      *)
(* ------------------------------------------------------------------ *)

(* 64 B to 16 KB, denser below one page *)
let figure8_sizes =
  [ 64; 128; 256; 384; 512; 768; 1024; 1536; 2048; 3072; 4096;
    4608; 5120; 6144; 7168; 8192; 10240; 12288; 16384 ]

let figure8_messages = 32

let report_figure8 ?(sizes = figure8_sizes) ?(messages = figure8_messages)
    ?(queued = false) () =
  let p = probe () in
  let sys =
    if queued then
      System.create
        ~config:
          { System.default_config with
            System.machine =
              { M.default_config with
                M.udma_mode = Some (Udma_engine.Queued { depth = 8 }) } }
        ~nodes:2 ()
    else System.create ~nodes:2 ()
  in
  watch p (System.engine sys);
  let snd = System.node sys 0 and rcv = System.node sys 1 in
  let sender = Scheduler.spawn snd.System.machine ~name:"sender" in
  let receiver = Scheduler.spawn rcv.System.machine ~name:"receiver" in
  let max_size = List.fold_left max 4096 sizes in
  let page_size = Layout.page_size snd.System.machine.M.layout in
  let pages = ((max_size + 4) + page_size - 1) / page_size + 1 in
  let ch =
    Messaging.connect sys ~sender:(0, sender) ~receiver:(1, receiver) ~pages ()
  in
  let buf = Kernel.alloc_buffer snd.System.machine sender ~bytes:(pages * page_size) in
  Kernel.write_user snd.System.machine sender ~vaddr:buf (pattern max_size);
  let cpu = Kernel.user_cpu snd.System.machine sender in
  (* warm every mapping (proxy pages, TLB) with one full-size send *)
  (match
     Messaging.send_nowait ch cpu ~src_vaddr:buf ~nbytes:max_size
       ~pipelined:queued ()
   with
  | Ok () -> ()
  | Error e -> fail_send e);
  System.run_until_idle sys;
  let raw =
    List.map
      (fun size ->
        let t0 = Engine.now (System.engine sys) in
        for _ = 1 to messages do
          match
            Messaging.send_nowait ch cpu ~src_vaddr:buf ~nbytes:size
              ~pipelined:queued ()
          with
          | Ok () -> ()
          | Error e -> fail_send e
        done;
        let dt = Engine.now (System.engine sys) - t0 in
        System.run_until_idle sys;
        (size, float_of_int dt /. float_of_int messages))
      sizes
  in
  let max_bpc =
    List.fold_left
      (fun acc (size, cpm) -> Float.max acc (float_of_int size /. cpm))
      0.0 raw
  in
  Report.make
    ~id:(if queued then "e1_figure8_queued" else "e1_figure8")
    ~title:
      (if queued then
         "E1 / Figure 8: UDMA bandwidth vs message size (queued section-7 \
          hardware)"
       else "E1 / Figure 8: deliberate-update UDMA bandwidth vs message size")
    ~meta:[ ("messages", vi messages); ("queued", vb queued) ]
    ~columns:
      [
        ("size", "size");
        ("cycles_per_msg", "cycles/msg");
        ("bytes_per_cycle", "bytes/cyc");
        ("pct_of_max", "%max");
      ]
    ~breakdown:(breakdown p)
    (List.map
       (fun (size, cpm) ->
         let bpc = float_of_int size /. cpm in
         [
           ("size", vi size);
           ("cycles_per_msg", vf cpm);
           ("bytes_per_cycle", vf bpc);
           ("pct_of_max", vf (100.0 *. bpc /. max_bpc));
         ])
       raw)

let e1 =
  {
    exp_name = "figure8";
    exp_alias = "e1";
    exp_doc = "E1: deliberate-update bandwidth vs message size (Figure 8).";
    exp_run =
      Param.(
        let+ sizes =
          v "sizes" (List Int) ~docv:"BYTES,..." ~doc:"Message sizes to sweep."
            ~quick:[ 512; 1024; 4096; 16384 ] figure8_sizes
        and+ messages =
          v "messages" Int ~docv:"N" ~doc:"Messages per size point." ~quick:8
            figure8_messages
        and+ hardware =
          v "hardware"
            (List (Enum [ ("basic", false); ("queued", true) ]))
            ~docv:"MODES"
            ~doc:
              "UDMA hardware to sweep, one table each: $(b,basic) (the \
               paper's Figure 8) and/or $(b,queued) (the section-7 queued \
               hardware with the pipelined initiator, an ablation)."
            [ false; true ]
        in
        fun ~quick:_ ~seed:_ ->
          List.map
            (fun queued -> report_figure8 ~sizes ~messages ~queued ())
            hardware);
    exp_anchors =
      [
        anchor "e1.pct_of_max@512B" "e1_figure8"
          (Report.Row [ ("size", "512") ])
          "pct_of_max";
        anchor "e1.pct_of_max@4KB" "e1_figure8"
          (Report.Row [ ("size", "4096") ])
          "pct_of_max";
      ];
  }

(* ------------------------------------------------------------------ *)
(* shared single-node rig: machine + UDMA + one buffer device          *)
(* ------------------------------------------------------------------ *)

let buffer_rig ?(mode = Udma_engine.Basic) ?(mem_pages = 128) ?(dev_pages = 64)
    () =
  let config =
    { M.default_config with M.udma_mode = Some mode; mem_pages; dev_pages }
  in
  let m = M.create ~config () in
  let udma = Option.get m.M.udma in
  let page_size = Layout.page_size m.M.layout in
  let port, store = Device.buffer "dev" ~size:(dev_pages * page_size) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:dev_pages ~port ();
  (m, udma, port, store)

let grant_dev m proc ~pages =
  for i = 0 to pages - 1 do
    match Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i ~writable:true with
    | Ok () -> ()
    | Error e -> fail_syscall e
  done

(* ------------------------------------------------------------------ *)
(* E2: initiation costs                                                *)
(* ------------------------------------------------------------------ *)

(* one (label, cycles, us) row of the E2 / E8 cost tables *)
let cost_row costs label cycles =
  [
    ("label", vs label);
    ("cycles", vi cycles);
    ("us", vf (Cost_model.us_of_cycles costs cycles));
  ]

let cost_columns = [ ("label", "path"); ("cycles", "cycles"); ("us", "us") ]

let report_costs () =
  let p = probe () in
  let m, _udma, port, _ = buffer_rig () in
  watch p m.M.engine;
  let proc = Scheduler.spawn m ~name:"p" in
  grant_dev m proc ~pages:2;
  let buf = Kernel.alloc_buffer m proc ~bytes:8192 in
  Kernel.write_user m proc ~vaddr:buf (pattern 8192);
  let cpu = Kernel.user_cpu m proc in
  let dst = Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0) in
  (* warm mappings *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst ~nbytes:4096 ()
   with
  | Ok _ -> ()
  | Error e -> fail_transfer e);
  Engine.run_until_idle m.M.engine;
  let udma_init =
    match
      Initiator.initiation_cycles cpu ~layout:m.M.layout
        ~config:Initiator.default_config ~src:(Initiator.Memory buf) ~dst
        ~nbytes:4096
    with
    | Ok c -> c
    | Error e -> fail_transfer e
  in
  Engine.run_until_idle m.M.engine;
  let udma_4k =
    match
      Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
        ~dst ~nbytes:4096 ()
    with
    | Ok s -> s.Initiator.cycles
    | Error e -> fail_transfer e
  in
  Engine.run_until_idle m.M.engine;
  let trad strategy nbytes =
    match
      Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:buf ~nbytes
        ~port ~dev_addr:0 ~strategy
    with
    | Ok c -> c
    | Error e -> fail_syscall e
  in
  let trad_pin_4 = trad Syscall.Pin_user_pages 4 in
  let trad_pin_4k = trad Syscall.Pin_user_pages 4096 in
  let trad_copy_4k = trad Syscall.Copy_through_buffer 4096 in
  let costs = m.M.costs in
  Report.make ~id:"e2_initiation"
    ~title:"E2: transfer-initiation cost (the paper's 2.8 us)"
    ~columns:cost_columns ~breakdown:(breakdown p)
    [
      cost_row costs "UDMA initiation (2 refs + check)" udma_init;
      cost_row costs "UDMA 4 KB transfer, end to end" udma_4k;
      cost_row costs "traditional syscall entry/exit alone" costs.Cost_model.syscall;
      cost_row costs "traditional 4 B transfer (pin)" trad_pin_4;
      cost_row costs "traditional 4 KB transfer (pin)" trad_pin_4k;
      cost_row costs "traditional 4 KB transfer (copy)" trad_copy_4k;
    ]

let e2 =
  {
    exp_name = "initiation";
    exp_alias = "e2";
    exp_doc = "E2: UDMA vs traditional transfer-initiation cost (the 2.8us).";
    exp_run = Param.const (fun ~quick:_ ~seed:_ -> [ report_costs () ]);
    exp_anchors =
      [
        anchor "e2.initiation_cycles" "e2_initiation"
          (Report.Row [ ("label", "UDMA initiation (2 refs + check)") ])
          "cycles";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E3: HIPPI motivation                                                *)
(* ------------------------------------------------------------------ *)

let hippi_blocks = List.init 11 (fun i -> 256 lsl i) (* 256 B to 256 KB *)

let report_hippi ?(blocks = hippi_blocks) () =
  let p = probe () in
  let config =
    {
      M.default_config with
      M.udma_mode = None;
      costs = Cost_model.hippi;
      mem_pages = 256;
      virt_pages = 512;
    }
  in
  let m = M.create ~config () in
  watch p m.M.engine;
  let proc = Scheduler.spawn m ~name:"p" in
  let port = Device.null "hippi" in
  let max_block = List.fold_left max 4096 blocks in
  let buf = Kernel.alloc_buffer m proc ~bytes:max_block in
  Kernel.write_user m proc ~vaddr:buf (pattern (min max_block 65536));
  let mhz = float_of_int m.M.costs.Cost_model.mhz in
  (* raw channel rate: one 4-byte word per [burst_word_cycles] *)
  let channel_mbps =
    4.0 *. mhz /. float_of_int (Bus.timing m.M.bus).Bus.burst_word_cycles
  in
  let rows =
    List.map
      (fun block ->
        let cycles =
          match
            Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:buf
              ~nbytes:block ~port ~dev_addr:0 ~strategy:Syscall.Pin_user_pages
          with
          | Ok c -> c
          | Error e -> fail_syscall e
        in
        let mbps = float_of_int block *. mhz /. float_of_int cycles in
        [
          ("block", vi block);
          ("mbytes_per_s", vf mbps);
          ("pct_of_channel", vf (100.0 *. mbps /. channel_mbps));
        ])
      blocks
  in
  Report.make ~id:"e3_hippi"
    ~title:"E3: kernel-initiated DMA on a HIPPI-class channel (section 1)"
    ~columns:
      [
        ("block", "block");
        ("mbytes_per_s", "MB/s");
        ("pct_of_channel", "%channel");
      ]
    ~breakdown:(breakdown p) rows

let e3 =
  {
    exp_name = "hippi";
    exp_alias = "e3";
    exp_doc = "E3: kernel DMA bandwidth vs block size on a HIPPI profile.";
    exp_run =
      Param.(
        let+ blocks =
          v "sizes" (List Int) ~docv:"BYTES,..." ~doc:"Block sizes to sweep."
            ~quick:[ 1024; 4096; 65536; 262144 ] hippi_blocks
        in
        fun ~quick:_ ~seed:_ -> [ report_hippi ~blocks () ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E4: PIO-FIFO crossover                                              *)
(* ------------------------------------------------------------------ *)

let udma_latency sys ch cpu_snd cpu_rcv ~buf ~size ~trials =
  let total = ref 0 in
  for _ = 1 to trials do
    let t0 = Engine.now (System.engine sys) in
    let seq =
      match Messaging.send ch cpu_snd ~src_vaddr:buf ~nbytes:size () with
      | Ok seq -> seq
      | Error e -> fail_send e
    in
    (match Messaging.recv_wait ch cpu_rcv ~seq () with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    total := !total + (Engine.now (System.engine sys) - t0);
    System.run_until_idle sys
  done;
  float_of_int !total /. float_of_int trials

let pio_pair () =
  let config = { M.default_config with M.udma_mode = None; mem_pages = 64 } in
  let engine = Engine.create ~mhz:config.M.costs.Cost_model.mhz () in
  let mk () =
    M.create ~config:{ config with M.shared_engine = Some engine } ()
  in
  let ma = mk () and mb = mk () in
  let fa = Pio_fifo.create ~engine () and fb = Pio_fifo.create ~engine () in
  Pio_fifo.connect fa fb;
  let install m f =
    Pio_fifo.install_at f m.M.bus
      ~base:(Layout.dev_proxy_base m.M.layout)
      ~size:(Layout.page_size m.M.layout)
  in
  install ma fa;
  install mb fb;
  (engine, ma, mb, fa, fb)

let pio_latency p ~size ~trials =
  let engine, ma, mb, _fa, _fb = pio_pair () in
  watch p engine;
  let pa = Scheduler.spawn ma ~name:"pio-snd" in
  let pb = Scheduler.spawn mb ~name:"pio-rcv" in
  (match Syscall.map_device_proxy ma pa ~vdev_index:0 ~pdev_index:0 ~writable:true with
  | Ok () -> ()
  | Error e -> fail_syscall e);
  (match Syscall.map_device_proxy mb pb ~vdev_index:0 ~pdev_index:0 ~writable:true with
  | Ok () -> ()
  | Error e -> fail_syscall e);
  let ca = Kernel.user_cpu ma pa and cb = Kernel.user_cpu mb pb in
  let tx_a = Layout.dev_proxy_base ma.M.layout in
  let rx_b = Layout.dev_proxy_base mb.M.layout + 4 in
  let count_b = Layout.dev_proxy_base mb.M.layout + 8 in
  let words = (size + 3) / 4 in
  let total = ref 0 in
  for _ = 1 to trials do
    let t0 = Engine.now engine in
    (* sender: one length word then the payload, one store per word *)
    ca.Initiator.store ~vaddr:tx_a (Int32.of_int words);
    for w = 1 to words do
      ca.Initiator.store ~vaddr:tx_a (Int32.of_int w)
    done;
    (* receiver: poll the count, then drain *)
    let expected = words + 1 in
    let rec wait_drain got polls =
      if got >= expected then ()
      else if polls > 10_000_000 then failwith "pio: poll budget"
      else begin
        let avail = Int32.to_int (cb.Initiator.load ~vaddr:count_b) in
        let take = min avail (expected - got) in
        for _ = 1 to take do
          ignore (cb.Initiator.load ~vaddr:rx_b)
        done;
        wait_drain (got + take) (polls + 1)
      end
    in
    wait_drain 0 0;
    total := !total + (Engine.now engine - t0)
  done;
  float_of_int !total /. float_of_int trials

let crossover_sizes = [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]
let crossover_trials = 8

let report_crossover ?(sizes = crossover_sizes) ?(trials = crossover_trials) ()
    =
  let p = probe () in
  (* UDMA side: one 2-node system reused across sizes *)
  let sys = System.create ~nodes:2 () in
  watch p (System.engine sys);
  let snd = System.node sys 0 and rcv = System.node sys 1 in
  let sender = Scheduler.spawn snd.System.machine ~name:"s" in
  let receiver = Scheduler.spawn rcv.System.machine ~name:"r" in
  let max_size = List.fold_left max 4096 sizes in
  let page_size = Layout.page_size snd.System.machine.M.layout in
  let pages = ((max_size + 4) + page_size - 1) / page_size + 1 in
  let ch =
    Messaging.connect sys ~sender:(0, sender) ~receiver:(1, receiver) ~pages ()
  in
  let buf =
    Kernel.alloc_buffer snd.System.machine sender ~bytes:(pages * page_size)
  in
  Kernel.write_user snd.System.machine sender ~vaddr:buf (pattern max_size);
  let cpu_snd = Kernel.user_cpu snd.System.machine sender in
  let cpu_rcv = Kernel.user_cpu rcv.System.machine receiver in
  (match Messaging.send ch cpu_snd ~src_vaddr:buf ~nbytes:max_size () with
  | Ok seq -> (
      match Messaging.recv_wait ch cpu_rcv ~seq () with
      | Ok _ -> ()
      | Error msg -> failwith msg)
  | Error e -> fail_send e);
  System.run_until_idle sys;
  let rows =
    List.map
      (fun size ->
        let size = max 4 (size land lnot 3) in
        let udma = udma_latency sys ch cpu_snd cpu_rcv ~buf ~size ~trials in
        let pio = pio_latency p ~size ~trials in
        [
          ("size", vi size);
          ("udma_cycles", vf udma);
          ("pio_cycles", vf pio);
          ("winner", vs (if pio < udma then "PIO" else "UDMA"));
        ])
      sizes
  in
  Report.make ~id:"e4_crossover"
    ~title:"E4: one-way latency, UDMA vs memory-mapped FIFO (section 9)"
    ~meta:[ ("trials", vi trials) ]
    ~columns:
      [
        ("size", "size");
        ("udma_cycles", "UDMA cycles");
        ("pio_cycles", "PIO cycles");
        ("winner", "winner");
      ]
    ~breakdown:(breakdown p) rows

let e4 =
  {
    exp_name = "crossover";
    exp_alias = "e4";
    exp_doc = "E4: UDMA vs memory-mapped FIFO latency.";
    exp_run =
      Param.(
        let+ sizes =
          v "sizes" (List Int) ~docv:"BYTES,..." ~doc:"Message sizes."
            ~quick:[ 64; 512; 4096 ] crossover_sizes
        and+ trials =
          v "trials" Int ~docv:"N" ~doc:"Trials per size." ~quick:2
            crossover_trials
        in
        fun ~quick:_ ~seed:_ -> [ report_crossover ~sizes ~trials () ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E5: queueing ablation                                               *)
(* ------------------------------------------------------------------ *)

let one_big_transfer ~mode ~total p =
  let m, _udma, _, _ = buffer_rig ~mode () in
  watch p m.M.engine;
  let proc = Scheduler.spawn m ~name:"p" in
  let page_size = Layout.page_size m.M.layout in
  let pages = (total + page_size - 1) / page_size in
  grant_dev m proc ~pages;
  let buf = Kernel.alloc_buffer m proc ~bytes:total in
  Kernel.write_user m proc ~vaddr:buf (pattern (min total 65536));
  let cpu = Kernel.user_cpu m proc in
  let dst = Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0) in
  (* warm one page of mappings, then measure the full transfer cold on
     data but warm on code paths *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst ~nbytes:4096 ()
   with
  | Ok _ -> ()
  | Error e -> fail_transfer e);
  Engine.run_until_idle m.M.engine;
  let call =
    match mode with
    | Udma_engine.Basic -> Initiator.transfer
    | Udma_engine.Queued _ -> Initiator.transfer_queued
  in
  match
    call cpu ~layout:m.M.layout ~src:(Initiator.Memory buf) ~dst ~nbytes:total
      ()
  with
  | Ok s -> s.Initiator.cycles
  | Error e -> fail_transfer e

let queueing_sizes = [ 8192; 16384; 32768; 65536 ]
let queueing_depths = [ 2; 4; 8; 16 ]

let report_queueing ?(total_sizes = queueing_sizes) ?(depths = queueing_depths)
    () =
  let p = probe () in
  let depth_field d = Printf.sprintf "depth_%d" d in
  let rows =
    List.map
      (fun total ->
        let basic = one_big_transfer ~mode:Udma_engine.Basic ~total p in
        [ ("total_bytes", vi total); ("basic_cycles", vi basic) ]
        @ List.map
            (fun depth ->
              ( depth_field depth,
                vi
                  (one_big_transfer ~mode:(Udma_engine.Queued { depth }) ~total
                     p) ))
            depths)
      total_sizes
  in
  Report.make ~id:"e5_queueing"
    ~title:"E5: multi-page transfers, basic vs queued UDMA (section 7)"
    ~columns:
      ([ ("total_bytes", "total"); ("basic_cycles", "basic") ]
      @ List.map (fun d -> (depth_field d, Printf.sprintf "depth=%d" d)) depths)
    ~breakdown:(breakdown p) rows

let e5 =
  {
    exp_name = "queueing";
    exp_alias = "e5";
    exp_doc = "E5: basic vs queued UDMA for multi-page transfers.";
    exp_run =
      Param.(
        let+ total_sizes =
          v "sizes" (List Int) ~docv:"BYTES,..." ~doc:"Total transfer sizes."
            ~quick:[ 16384; 65536 ] queueing_sizes
        and+ depths =
          v "depths" (List Int) ~docv:"D,..." ~doc:"Hardware queue depths."
            ~quick:[ 4; 8 ] queueing_depths
        in
        fun ~quick:_ ~seed:_ -> [ report_queueing ~total_sizes ~depths () ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E6: I1 atomicity under preemption                                   *)
(* ------------------------------------------------------------------ *)

let atomicity_probs = [ 0; 5; 10; 20; 30; 50 ]
let atomicity_transfers = 200

let report_atomicity ?(probs_pct = atomicity_probs)
    ?(transfers = atomicity_transfers) ?(seed = 42) () =
  let p = probe () in
  let rows =
    List.map
      (fun pct ->
        let m, udma, _, _ = buffer_rig () in
        watch p m.M.engine;
        let p1 = Scheduler.spawn m ~name:"p1" in
        let p2 = Scheduler.spawn m ~name:"p2" in
        grant_dev m p1 ~pages:1;
        (match
           Syscall.map_device_proxy m p2 ~vdev_index:1 ~pdev_index:1
             ~writable:true
         with
        | Ok () -> ()
        | Error e -> fail_syscall e);
        let b1 = Kernel.alloc_buffer m p1 ~bytes:4096 in
        Kernel.write_user m p1 ~vaddr:b1 (pattern 512);
        let b2 = Kernel.alloc_buffer m p2 ~bytes:4096 in
        Kernel.write_user m p2 ~vaddr:b2 (pattern 512);
        let cpu1 = Kernel.user_cpu m p1 in
        let cpu2 = Kernel.user_cpu m p2 in
        (* legal pairings: p1 sends b1 -> dev page 0, p2 sends b2 -> dev
           page 1; anything else is a cross-process pairing *)
        let dev0 = Kernel.vdev_addr m ~index:0 ~offset:0 in
        let dev1 = Kernel.vdev_addr m ~index:1 ~offset:0 in
        (* the start hook sees PHYSICAL proxy addresses; device-proxy
           pages are identity-mapped here, memory proxies are checked
           through the buffers' frames *)
        let phys_src vaddr proc =
          let page_size = Layout.page_size m.M.layout in
          match Vm.frame_of_vpn m proc ~vpn:(vaddr / page_size) with
          | Some frame ->
              Layout.proxy_of m.M.layout
                ((frame * page_size) + (vaddr mod page_size))
          | None -> -1
        in
        let violations = ref 0 in
        Udma_engine.set_start_hook udma (fun ~src_proxy ~dest_proxy ~nbytes:_ ->
            let legal =
              (src_proxy = phys_src b1 p1 && dest_proxy = dev0)
              || (src_proxy = phys_src b2 p2 && dest_proxy = dev1)
            in
            if not legal then incr violations);
        let rng = Rng.create (seed + pct) in
        Scheduler.set_preempt_hook m
          (Some (fun _ -> pct > 0 && Rng.int rng 100 < pct));
        let retries = ref 0 and cycles = ref 0 in
        for i = 1 to transfers do
          let cpu, buf, dev =
            if i land 1 = 0 then (cpu2, b2, dev1) else (cpu1, b1, dev0)
          in
          match
            Initiator.transfer cpu ~layout:m.M.layout
              ~src:(Initiator.Memory buf) ~dst:(Initiator.Device dev)
              ~nbytes:512 ()
          with
          | Ok s ->
              retries := !retries + s.Initiator.retries;
              cycles := !cycles + s.Initiator.cycles
          | Error e -> fail_transfer e
        done;
        Scheduler.set_preempt_hook m None;
        Engine.run_until_idle m.M.engine;
        [
          ("preempt_pct", vi pct);
          ("transfers", vi transfers);
          ("retries", vi !retries);
          ("avg_cycles", vf (float_of_int !cycles /. float_of_int transfers));
          ("violations", vi !violations);
        ])
      probs_pct
  in
  Report.make ~id:"e6_atomicity"
    ~title:"E6: two-reference atomicity under preemption (invariant I1)"
    ~meta:[ ("transfers", vi transfers); ("seed", vi seed) ]
    ~columns:
      [
        ("preempt_pct", "preempt%");
        ("transfers", "transfers");
        ("retries", "retries");
        ("avg_cycles", "avg cycles");
        ("violations", "violations");
      ]
    ~breakdown:(breakdown p) rows

let e6 =
  {
    exp_name = "atomicity";
    exp_alias = "e6";
    exp_doc = "E6: I1 retries under forced preemption.";
    exp_run =
      Param.(
        let+ probs_pct =
          v "probs" (List Int) ~docv:"PCT,..."
            ~doc:"Preemption probabilities (%)." ~quick:[ 0; 20 ] atomicity_probs
        and+ transfers =
          v "transfers" Int ~docv:"N" ~doc:"Transfers per probability point."
            ~quick:40 atomicity_transfers
        in
        fun ~quick:_ ~seed -> [ report_atomicity ~probs_pct ~transfers ~seed () ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E7: I4 vs pinning                                                   *)
(* ------------------------------------------------------------------ *)

(* Static per-page costs plus a dynamic paging-under-transfers run
   reporting I4 skips and deferred cleans, one [label]/[value]/[unit]
   row per quantity. *)
let report_pinning () =
  let p = probe () in
  let costs = Cost_model.default in
  (* dynamic: paging pressure while transfers are in flight *)
  let m, _udma, _, _ = buffer_rig ~mem_pages:24 () in
  watch p m.M.engine;
  let p1 = Scheduler.spawn m ~name:"streamer" in
  let hog = Scheduler.spawn m ~name:"hog" in
  grant_dev m p1 ~pages:1;
  let buf = Kernel.alloc_buffer m p1 ~bytes:4096 in
  Kernel.write_user m p1 ~vaddr:buf (pattern 4096);
  let cpu = Kernel.user_cpu m p1 in
  let transfers = 60 in
  for _ = 1 to transfers do
    (* initiate without waiting so the engine is busy while the hog
       allocates and forces evictions *)
    cpu.Initiator.store
      ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0)
      (Int32.of_int 4096);
    let st =
      Status.decode (cpu.Initiator.load ~vaddr:(Layout.proxy_of m.M.layout buf))
    in
    if not (Status.ok st) then failwith "report_pinning: initiation failed";
    ignore (Kernel.alloc_buffer m hog ~bytes:4096);
    Scheduler.switch_to m p1;
    Engine.run_until_idle m.M.engine
  done;
  let s name = float_of_int (Metrics.get m.M.metrics name) in
  let line label value unit_ =
    [ ("label", vs label); ("value", vf value); ("unit", vs unit_) ]
  in
  Report.make ~id:"e7_pinning"
    ~title:"E7: page pinning vs the I4 check (section 6)"
    ~columns:[ ("label", "case"); ("value", "value"); ("unit", "unit") ]
    ~breakdown:(breakdown p)
    [
      line "pin + unpin one page (traditional, every transfer)"
        (float_of_int (costs.Cost_model.pin_page + costs.Cost_model.unpin_page))
        "cycles";
      line "I4 register/refcount check (per replacement candidate)"
        (float_of_int costs.Cost_model.remap_check)
        "cycles";
      line "dynamic run: transfers completed" (float_of_int transfers) "";
      line "dynamic run: evictions" (s "vm.evictions") "";
      line "dynamic run: I4 busy-frame skips" (s "vm.i4_skips") "";
      line "dynamic run: deferred cleans" (s "vm.clean_deferred") "";
    ]

let e7 =
  {
    exp_name = "pinning";
    exp_alias = "e7";
    exp_doc = "E7: page pinning vs the I4 remap check.";
    exp_run = Param.const (fun ~quick:_ ~seed:_ -> [ report_pinning () ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E8: proxy fault costs                                               *)
(* ------------------------------------------------------------------ *)

let report_proxy_faults () =
  let p = probe () in
  let m, udma, _, _ = buffer_rig ~mem_pages:16 () in
  watch p m.M.engine;
  let proc = Scheduler.spawn m ~name:"p" in
  grant_dev m proc ~pages:1;
  let costs = m.M.costs in
  let cpu = Kernel.user_cpu m proc in
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:buf (pattern 64);
  let proxy = Layout.proxy_of m.M.layout buf in
  let timed f =
    let t0 = Engine.now m.M.engine in
    f ();
    Engine.now m.M.engine - t0
  in
  (* cold: first touch takes the not-present proxy fault (§6 case 1) *)
  let cold = timed (fun () -> ignore (cpu.Initiator.load ~vaddr:proxy)) in
  let warm = timed (fun () -> ignore (cpu.Initiator.load ~vaddr:proxy)) in
  (* write upgrade: proxy STORE to a clean page (I3) *)
  let vpn = buf / Layout.page_size m.M.layout in
  ignore (Vm.clean_page m proc ~vpn);
  let upgrade =
    timed (fun () -> cpu.Initiator.store ~vaddr:proxy 64l)
  in
  Udma_engine.invalidate udma;
  (* paged out: evict buf, then touch its proxy (§6 case 2) *)
  let hog = Scheduler.spawn m ~name:"hog" in
  let rec force i =
    if Vm.frame_of_vpn m proc ~vpn <> None && i < 64 then begin
      ignore (Kernel.alloc_buffer m hog ~bytes:4096);
      force (i + 1)
    end
  in
  force 0;
  Scheduler.switch_to m proc;
  let paged_out = timed (fun () -> ignore (cpu.Initiator.load ~vaddr:proxy)) in
  (* illegal: proxy of an unmapped page segfaults (§6 case 3) *)
  let illegal_vaddr =
    Layout.proxy_of m.M.layout (100 * Layout.page_size m.M.layout)
  in
  let illegal_ok =
    match cpu.Initiator.load ~vaddr:illegal_vaddr with
    | _ -> false
    | exception Vm.Segfault _ -> true
  in
  Report.make ~id:"e8_proxy_faults"
    ~title:"E8: demand proxy-mapping costs (section 6)" ~columns:cost_columns
    ~breakdown:(breakdown p)
    [
      cost_row costs "cold proxy access (fault + mapping)" cold;
      cost_row costs "warm proxy access" warm;
      cost_row costs "I3 write upgrade (clean page as destination)" upgrade;
      cost_row costs "proxy access to paged-out page (incl. page-in)" paged_out;
      cost_row costs
        (if illegal_ok then "illegal proxy access -> segfault (correct)"
         else "illegal proxy access -> NOT caught (BUG)")
        0;
    ]

let e8 =
  {
    exp_name = "proxyfault";
    exp_alias = "e8";
    exp_doc = "E8: demand proxy-mapping fault costs.";
    exp_run = Param.const (fun ~quick:_ ~seed:_ -> [ report_proxy_faults () ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E9: I3 policy ablation                                              *)
(* ------------------------------------------------------------------ *)

let i3_run ~policy ~transfers ~pages p =
  let config =
    { M.default_config with
      M.udma_mode = Some Udma_engine.Basic;
      mem_pages = 128;
      i3_policy = policy }
  in
  let m = M.create ~config () in
  watch p m.M.engine;
  let udma = Option.get m.M.udma in
  let page_size = Layout.page_size m.M.layout in
  let port, store = Device.buffer "dev" ~size:(8 * page_size) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
  ignore store;
  let proc = Scheduler.spawn m ~name:"sink" in
  grant_dev m proc ~pages:1;
  let bufs =
    Array.init pages (fun _ -> Kernel.alloc_buffer m proc ~bytes:page_size)
  in
  let cpu = Kernel.user_cpu m proc in
  let t0 = Engine.now m.M.engine in
  for i = 0 to transfers - 1 do
    let buf = bufs.(i mod pages) in
    (match
       Initiator.transfer cpu ~layout:m.M.layout
         ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
         ~dst:(Initiator.Memory buf) ~nbytes:1024 ()
     with
    | Ok _ -> ()
    | Error e -> fail_transfer e);
    Engine.run_until_idle m.M.engine;
    (* a pageout-daemon pass cleans every dirty page between rounds,
       forcing the Write_upgrade policy to re-fault on the next
       incoming transfer *)
    if i mod pages = pages - 1 then
      Array.iter
        (fun b -> ignore (Vm.clean_page m proc ~vpn:(b / page_size)))
        bufs
  done;
  [
    ( "policy",
      vs
        (match policy with
        | M.Write_upgrade -> "write-upgrade (primary)"
        | M.Proxy_dirty_union -> "proxy-dirty union (alternative)") );
    ("transfers", vi transfers);
    ("cycles", vi (Engine.now m.M.engine - t0));
    ("proxy_faults", vi (Metrics.get m.M.metrics "vm.proxy_faults"));
    ("upgrades", vi (Metrics.get m.M.metrics "vm.dirty_upgrades"));
    ("cleans", vi (Metrics.get m.M.metrics "vm.cleans"));
  ]

let report_i3 ?(transfers = 64) ?(pages = 4) () =
  let p = probe () in
  let rows =
    [
      i3_run ~policy:M.Write_upgrade ~transfers ~pages p;
      i3_run ~policy:M.Proxy_dirty_union ~transfers ~pages p;
    ]
  in
  Report.make ~id:"e9_i3_policies"
    ~title:"E9: the two I3 content-consistency methods (section 6)"
    ~meta:[ ("transfers", vi transfers); ("pages", vi pages) ]
    ~columns:
      [
        ("policy", "policy");
        ("transfers", "transfers");
        ("cycles", "cycles");
        ("proxy_faults", "faults");
        ("upgrades", "upgrades");
        ("cleans", "cleans");
      ]
    ~breakdown:(breakdown p) rows

let e9 =
  {
    exp_name = "i3policy";
    exp_alias = "e9";
    exp_doc = "E9: the two I3 content-consistency methods.";
    exp_run =
      Param.const (fun ~quick ~seed:_ ->
          [ (if quick then report_i3 ~transfers:16 () else report_i3 ()) ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E10: deliberate vs automatic update                                 *)
(* ------------------------------------------------------------------ *)

let update_rig p =
  let sys = System.create ~nodes:2 () in
  watch p (System.engine sys);
  let snd = System.node sys 0 in
  let sp = Scheduler.spawn snd.Udma_shrimp.System.machine ~name:"s" in
  let rp =
    Scheduler.spawn (System.node sys 1).Udma_shrimp.System.machine ~name:"r"
  in
  (sys, snd, sp, rp)

(* deliberate: one UDMA transfer per update *)
let deliberate_updates ~offsets ~len p =
  let sys, snd, sp, rp = update_rig p in
  let m = snd.Udma_shrimp.System.machine in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  System.import_export sys ~node:0 ~proc:sp ~first_index:0 export;
  let buf = Kernel.alloc_buffer m sp ~bytes:4096 in
  Kernel.write_user m sp ~vaddr:buf (pattern 4096);
  let cpu = Kernel.user_cpu m sp in
  (* warm *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~nbytes:len ()
   with
  | Ok _ -> ()
  | Error e -> fail_transfer e);
  System.run_until_idle sys;
  let sent0 = Udma_shrimp.Network_interface.packets_sent snd.Udma_shrimp.System.ni in
  let t0 = Engine.now (System.engine sys) in
  List.iter
    (fun off ->
      match
        Initiator.transfer cpu ~layout:m.M.layout
          ~src:(Initiator.Memory (buf + off))
          ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:off))
          ~nbytes:len ()
      with
      | Ok _ -> ()
      | Error e -> fail_transfer e)
    offsets;
  let cycles = Engine.now (System.engine sys) - t0 in
  System.run_until_idle sys;
  (cycles,
   Udma_shrimp.Network_interface.packets_sent snd.Udma_shrimp.System.ni - sent0)

(* automatic: plain stores to a bound page *)
let automatic_updates ~offsets ~len p =
  let sys, snd, sp, rp = update_rig p in
  let m = snd.Udma_shrimp.System.machine in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  let buf = Kernel.alloc_buffer m sp ~bytes:4096 in
  Kernel.write_user m sp ~vaddr:buf (pattern 4096);
  System.auto_bind sys ~node:0 ~proc:sp ~vaddr:buf export;
  let cpu = Kernel.user_cpu m sp in
  (* warm the TLB *)
  ignore (cpu.Initiator.load ~vaddr:buf);
  let sent0 = Udma_shrimp.Network_interface.packets_sent snd.Udma_shrimp.System.ni in
  let t0 = Engine.now (System.engine sys) in
  List.iter
    (fun off ->
      for w = 0 to (len / 4) - 1 do
        cpu.Initiator.store ~vaddr:(buf + off + (w * 4)) (Int32.of_int w)
      done)
    offsets;
  let cycles = Engine.now (System.engine sys) - t0 in
  System.run_until_idle sys;
  (cycles,
   Udma_shrimp.Network_interface.packets_sent snd.Udma_shrimp.System.ni - sent0)

let report_updates () =
  let p = probe () in
  let compare workload ~offsets ~len =
    let d_c, d_p = deliberate_updates ~offsets ~len p in
    let a_c, a_p = automatic_updates ~offsets ~len p in
    [
      ("workload", vs workload);
      ("deliberate_cycles", vi d_c);
      ("automatic_cycles", vi a_c);
      ("deliberate_packets", vi d_p);
      ("automatic_packets", vi a_p);
    ]
  in
  (* 32 single-word updates scattered across the page *)
  let scattered =
    compare "32 scattered single-word updates" ~len:4
      ~offsets:(List.init 32 (fun i -> (i * 41 * 4) mod 4000 land lnot 3))
  in
  let bulk = compare "one 4 KB sequential region" ~offsets:[ 0 ] ~len:4096 in
  Report.make ~id:"e10_updates"
    ~title:"E10: deliberate vs automatic update (section 9)"
    ~columns:
      [
        ("workload", "workload");
        ("deliberate_cycles", "delib cyc");
        ("automatic_cycles", "auto cyc");
        ("deliberate_packets", "delib pk");
        ("automatic_packets", "auto pk");
      ]
    ~breakdown:(breakdown p) [ scattered; bulk ]

let e10 =
  {
    exp_name = "updates";
    exp_alias = "e10";
    exp_doc = "E10: deliberate vs automatic update.";
    exp_run = Param.const (fun ~quick:_ ~seed:_ -> [ report_updates () ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E11: traffic saturation sweep                                       *)
(* ------------------------------------------------------------------ *)

module Pattern = Udma_traffic.Pattern
module Load_gen = Udma_traffic.Load_gen
module Sweep = Udma_traffic.Sweep

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
  let width =
    match outcome.Sweep.points with
    | { result; _ } :: _ -> result.Load_gen.width
    | [] -> 0
  in
  Report.make ~id:"e11_saturation"
    ~title:
      (Printf.sprintf
         "E11: latency vs offered load, %d-node mesh, %s traffic%s" cfg.nodes
         (Pattern.to_string cfg.pattern)
         (if cfg.link_contention then "" else " (contention off)"))
    ~meta:
      ([
        ("nodes", vi cfg.nodes);
        ("width", vi width);
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
        let wait_at_heaviest o =
          match List.rev o.Sweep.points with
          | { Sweep.result; _ } :: _ -> result.Load_gen.link_wait_cycles
          | [] -> 0
        in
        [
          ("pattern", vs (Pattern.to_string pattern));
          ("knee_dim", v_opt vf "none" dim.Sweep.knee_load);
          ("knee_adaptive", v_opt vf "none" ada.Sweep.knee_load);
          ( "knee_shift",
            match (dim.Sweep.knee_load, ada.Sweep.knee_load) with
            | Some d, Some a -> vf (a -. d)
            | _ -> vs "n/a" );
          ("wait_dim", vi (wait_at_heaviest dim));
          ("wait_adaptive", vi (wait_at_heaviest ada));
        ])
      patterns
  in
  let width = Udma_shrimp.Router.mesh_width cfg.nodes in
  Report.make ~id:"e12_adaptive"
    ~title:
      (Printf.sprintf
         "E12: dimension-order vs minimal-adaptive routing, %d-node mesh \
          (saturation knee per pattern)"
         cfg.nodes)
    ~meta:
      [
        ("nodes", vi cfg.nodes);
        ("width", vi width);
        ("msg_bytes", vi cfg.msg_bytes);
        ("link_per_word", vi cfg.link_per_word);
        ("send_cycles", vi !send_cycles);
        ("warmup_cycles", vi cfg.warmup_cycles);
        ("window_cycles", vi cfg.window_cycles);
        ("seed", vi cfg.seed);
      ]
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
      [
        anchor "e12.knee_dim@transpose" "e12_adaptive"
          (Report.Row [ ("pattern", "transpose") ])
          "knee_dim";
        anchor "e12.knee_adaptive@transpose" "e12_adaptive"
          (Report.Row [ ("pattern", "transpose") ])
          "knee_adaptive";
      ];
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
            let heaviest =
              match List.rev o.Sweep.points with
              | { Sweep.result; _ } :: _ -> result
              | [] -> assert false (* Sweep.over rejects empty loads *)
            in
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
  let width = Udma_shrimp.Router.mesh_width cfg.nodes in
  Report.make ~id:"e13_hotspot"
    ~title:
      (Printf.sprintf
         "E13: hotspot saturation vs virtual channels, %d-node mesh \
          (knee per hotspot share; stall columns at the heaviest load)"
         cfg.nodes)
    ~meta:
      [
        ("nodes", vi cfg.nodes);
        ("width", vi width);
        ("msg_bytes", vi cfg.msg_bytes);
        ("link_per_word", vi cfg.link_per_word);
        ("rx_credits", v_opt vi "unlimited" cfg.rx_credits);
        ("send_cycles", vi !send_cycles);
        ("warmup_cycles", vi cfg.warmup_cycles);
        ("window_cycles", vi cfg.window_cycles);
        ("seed", vi cfg.seed);
      ]
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
    match o.Sweep.points with
    | [ { Sweep.result; _ } ] -> result
    | _ -> assert false (* one load in, one point out *)
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
  let width = Udma_shrimp.Router.mesh_width cfg.nodes in
  Report.make ~id:"e18_flit"
    ~title:
      (Printf.sprintf
         "E18: flit-level wormhole crossing vs the analytic wire, %d-node \
          mesh, %d%% hotspot at load %.2f (head-of-line blocking per VC \
          count)"
         cfg.nodes hot_pct load)
    ~meta:
      [
        ("nodes", vi cfg.nodes);
        ("width", vi width);
        ("hot_pct", vi hot_pct);
        ("load", vf load);
        ("msg_bytes", vi cfg.msg_bytes);
        ("link_per_word", vi cfg.link_per_word);
        ("flit_words", vi cfg.flit_words);
        ("rx_credits", v_opt vi "unlimited" cfg.rx_credits);
        ("send_cycles", vi !send_cycles);
        ("warmup_cycles", vi cfg.warmup_cycles);
        ("window_cycles", vi cfg.window_cycles);
        ("seed", vi cfg.seed);
      ]
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

(* E14: multi-tenant protection backends. Tenant counts sweep from
   comfortable (8 tenants over 64 table slots) to heavy overcommit
   (1024 tenants churning the same 64 slots), and every backend faces
   the identical traffic: the per-op RNG decisions depend only on the
   seed and the injection rates, never on the backend, so the rows
   differ purely in protection-path cycle costs and fault taxonomy.
   Proxy pays only at grant time (syscall + proxy fault on recovery);
   the IOMMU pays the IOTLB walk on cold initiations and map/unmap on
   churn; capabilities pay a per-transfer check plus grant/revoke.
   One row per (backend, tenant count): initiation p50/p99/p999, the
   recovered-fault rate, rogue probes denied, grant and invalidation
   traffic, the IOTLB hit rate (IOMMU rows) and the isolation-breach
   count (always 0).

   The harness runs on its own defaults (64 table slots, 20k ops, churn
   8 %, evict 4 %, rogue 4 %); every field but the swept backend and
   tenant count is a flag. *)
let e14_tenants = Tenants.default_config

let report_tenants ~tenant_counts ~kinds (cfg : Tenants.config) =
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun tenants ->
            let r = Tenants.run { cfg with Tenants.kind; tenants } in
            let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b in
            [
              ("backend", vs (Backend.kind_name kind));
              ("tenants", vi tenants);
              ("sends", vi r.Tenants.sends);
              ("p50", vi r.Tenants.p50);
              ("p99", vi r.Tenants.p99);
              ("p999", vi r.Tenants.p999);
              ("mean", vf r.Tenants.mean);
              ("fault_pct", vf (pct r.Tenants.faults r.Tenants.sends));
              ("rogue_probes", vi r.Tenants.rogue_probes);
              ("rogue_denied", vi r.Tenants.rogue_denied);
              ("grants", vi r.Tenants.grants);
              ("invalidations", vi r.Tenants.invalidations);
              ( "iotlb_hit_pct",
                vf (pct r.Tenants.iotlb_hits
                      (r.Tenants.iotlb_hits + r.Tenants.iotlb_misses)) );
              ("breaches", vi r.Tenants.isolation_breaches);
            ])
          tenant_counts)
      kinds
  in
  Report.make ~id:"e14_tenants"
    ~title:
      (Printf.sprintf
         "E14: multi-tenant protection backends — initiation cost, fault \
          rate and invalidation traffic over %d table slots"
         cfg.slots)
    ~meta:
      [
        ("slots", vi cfg.slots);
        ("ops", vi cfg.ops);
        ("churn_pct", vi cfg.churn_pct);
        ("evict_pct", vi cfg.evict_pct);
        ("rogue_pct", vi cfg.rogue_pct);
        ("seed", vi cfg.seed);
      ]
    ~columns:
      [
        ("backend", "backend");
        ("tenants", "tenants");
        ("p50", "p50");
        ("p99", "p99");
        ("p999", "p999");
        ("fault_pct", "fault %");
        ("rogue_denied", "denied");
        ("grants", "grants");
        ("invalidations", "invals");
        ("iotlb_hit_pct", "IOTLB hit %");
        ("breaches", "breaches");
      ]
    rows

let e14 =
  {
    exp_name = "tenants";
    exp_alias = "e14";
    exp_doc =
      "E14: multi-tenant protection — proxy vs IOMMU vs capability \
       initiation cost and fault rate under tenant churn.";
    exp_run =
      Param.(
        let+ kinds =
          v "backend"
            (List (Parsed (Backend.parse_kind, Backend.kind_name)))
            ~docv:"KIND,..."
            ~doc:
              "Protection backends to sweep: $(b,proxy), $(b,iommu), \
               $(b,capability)."
            Backend.all_kinds
        and+ tenant_counts =
          v "tenants" (List Int) ~docv:"N,..." ~doc:"Tenant counts to sweep."
            ~quick:[ 8; 256 ] [ 8; 64; 256; 1024 ]
        and+ slots =
          v "slots" Int ~docv:"N"
            ~doc:"Destination-table slots shared by all tenants." e14_tenants.slots
        and+ ops =
          v "ops" Int ~docv:"N"
            ~doc:"Operations per (backend, tenant count) point." ~quick:4000
            e14_tenants.ops
        and+ churn_pct =
          v "churn" Int ~docv:"PCT"
            ~doc:"Per-op probability of descheduling a tenant (%)."
            e14_tenants.churn_pct
        and+ evict_pct =
          v "evict" Int ~docv:"PCT"
            ~doc:"Per-op probability of evicting a table slot (%)."
            e14_tenants.evict_pct
        and+ rogue_pct =
          v "rogue" Int ~docv:"PCT"
            ~doc:"Per-op probability of a rogue cross-tenant probe (%)."
            e14_tenants.rogue_pct
        in
        fun ~quick:_ ~seed ->
          [
            report_tenants ~tenant_counts ~kinds
              { e14_tenants with slots; ops; churn_pct; evict_pct; rogue_pct; seed };
          ]);
    exp_anchors =
      List.concat_map
        (fun backend ->
          List.map
            (fun (field, tenants) ->
              anchor
                (Printf.sprintf "e14.%s@%s.t%d" field backend tenants)
                "e14_tenants"
                (Report.Row
                   [ ("backend", backend); ("tenants", string_of_int tenants) ])
                field)
            [ ("p50", 8); ("p99", 256) ])
        [ "proxy"; "iommu"; "capability" ];
  }

(* ------------------------------------------------------------------ *)
(* E15: bandwidth vs transfer shape                                    *)
(* ------------------------------------------------------------------ *)

(* [Shape_strided f] reads 64 bytes every [64 * f] source bytes and
   packs them densely at the destination; [Shape_sg n] scatters [n]
   destination elements across the whole transfer, each within its
   initiation's device page. Both go through shaped initiations
   ({!Initiator.start_shaped}). *)
type shape_case = Shape_contig | Shape_strided of int | Shape_sg of int

let shape_label = function
  | Shape_contig -> "contig"
  | Shape_strided f -> Printf.sprintf "stride%d" f
  | Shape_sg n -> Printf.sprintf "sg%d" n

(* One shape at one hardware mode: move [total] bytes to the device
   and return the end-to-end user cycles. Strided shapes re-read the
   first source page (the cost model does not depend on the data);
   scatter-gather shapes split the destination of each page-sized
   initiation into elements scattered in reverse order within its
   device page, so every element stays inside one page — the shape the
   per-element clamp admits whole. *)
let run_shape ~mode ~total shape p =
  let m, _udma, _, _ = buffer_rig ~mode () in
  watch p m.M.engine;
  let proc = Scheduler.spawn m ~name:"p" in
  let page_size = Layout.page_size m.M.layout in
  grant_dev m proc ~pages:((total + page_size - 1) / page_size);
  let buf = Kernel.alloc_buffer m proc ~bytes:total in
  Kernel.write_user m proc ~vaddr:buf (pattern total);
  let cpu = Kernel.user_cpu m proc in
  let layout = m.M.layout in
  let dev off =
    Initiator.Device
      (Kernel.vdev_addr m ~index:(off / page_size) ~offset:(off mod page_size))
  in
  (* warm every mapping the measured run touches *)
  (match
     Initiator.transfer cpu ~layout ~src:(Initiator.Memory buf) ~dst:(dev 0)
       ~nbytes:total ()
   with
  | Ok _ -> ()
  | Error e -> fail_transfer e);
  Engine.run_until_idle m.M.engine;
  let queued =
    match mode with Udma_engine.Basic -> false | Udma_engine.Queued _ -> true
  in
  let start = cpu.Initiator.now () in
  (match shape with
  | Shape_contig -> (
      let call =
        if queued then Initiator.transfer_queued else Initiator.transfer
      in
      match
        call cpu ~layout ~src:(Initiator.Memory buf) ~dst:(dev 0)
          ~nbytes:total ()
      with
      | Ok _ -> ()
      | Error e -> fail_transfer e)
  | Shape_strided _ | Shape_sg _ ->
      let inits =
        match shape with
        | Shape_contig -> assert false
        | Shape_strided f ->
            (* chunk 64 every 64f bytes: each initiation's source span
               is exactly one page, the destination packs densely *)
            let chunk = 64 in
            let bytes_per_init = page_size / f in
            List.init (total / bytes_per_init) (fun k ->
                ( Initiator.Memory buf,
                  dev (k * bytes_per_init),
                  Initiator.Strided_shape { stride = chunk * f; chunk },
                  bytes_per_init ))
        | Shape_sg n ->
            let inits_n = total / page_size in
            let per_init = max 1 (n / inits_n) in
            let len = page_size / per_init in
            List.init inits_n (fun k ->
                let base = k * page_size in
                let extra =
                  List.init (per_init - 1) (fun j ->
                      (dev (base + ((per_init - 2 - j) * len)), len))
                in
                ( Initiator.Memory (buf + base),
                  dev (base + ((per_init - 1) * len)),
                  Initiator.Gather_shape extra,
                  page_size ))
      in
      let await probe =
        match Initiator.await cpu ~probe () with
        | Ok _ -> ()
        | Error e -> fail_transfer e
      in
      let last =
        List.fold_left
          (fun _ (src, dst, shape, nbytes) ->
            match
              Initiator.start_shaped cpu ~layout ~queued ~src ~dst ~shape
                ~nbytes ()
            with
            | Error e -> fail_transfer e
            | Ok (_, probe) ->
                if not queued then await probe;
                Some probe)
          None inits
      in
      Option.iter await last);
  let cycles = cpu.Initiator.now () - start in
  Engine.run_until_idle m.M.engine;
  cycles


let shapes_total =
  Param.v "total" Int ~docv:"BYTES"
    ~doc:"Total bytes moved per shape (a page multiple)."
    ~check:(fun t ->
      if t <= 0 || t mod 4096 <> 0 then
        Some (Printf.sprintf "%d is not a positive page multiple" t)
      else None)
    8192

let shapes_kinds =
  Param.v "shape"
    (List (Enum [ ("contig", `Contig); ("strided", `Strided); ("sg", `Sg) ]))
    ~docv:"KINDS"
    ~doc:
      "Shape families to sweep: comma-separated subset of $(b,contig), \
       $(b,strided) and $(b,sg)."
    [ `Contig; `Strided; `Sg ]

let shapes_strides =
  Param.v "stride" (List Int) ~docv:"FACTORS"
    ~doc:
      "Stride factors for the strided family (the source reads 64 bytes \
       every 64*FACTOR; each factor must divide 64)."
    ~check:
      (List.find_map (fun f ->
           if f <= 0 || 64 mod f <> 0 then
             Some (Printf.sprintf "factor %d does not divide 64" f)
           else None))
    ~quick:[ 4; 64 ] [ 2; 4; 8; 16; 32; 64 ]

let shapes_sg_elems =
  Param.v "sg-elems" (List Int) ~docv:"COUNTS"
    ~doc:
      "Scatter-gather element counts across the whole transfer (each must \
       be twice a power-of-two divisor of the page size)."
    ~check:
      (List.find_map (fun n ->
           if n < 2 || n mod 2 <> 0 || 4096 mod (n / 2) <> 0 then
             Some (Printf.sprintf "%d is not twice a divisor of the page" n)
           else None))
    ~quick:[ 4; 256 ] [ 2; 4; 16; 64; 256 ]

let shape_cases =
  Param.(
    let+ kinds = shapes_kinds
    and+ strides = shapes_strides
    and+ sg_elems = shapes_sg_elems in
    List.concat_map
      (function
        | `Contig -> [ Shape_contig ]
        | `Strided -> List.map (fun f -> Shape_strided f) strides
        | `Sg -> List.map (fun n -> Shape_sg n) sg_elems)
      kinds)

let report_shapes ~total ~cases =
  let p = probe () in
  let queued_mode = Udma_engine.Queued { depth = 8 } in
  let basic_contig = run_shape ~mode:Udma_engine.Basic ~total Shape_contig p in
  let queued_contig = run_shape ~mode:queued_mode ~total Shape_contig p in
  let rows =
    List.map
      (fun shape ->
        let b, q =
          match shape with
          | Shape_contig -> (basic_contig, queued_contig)
          | _ ->
              ( run_shape ~mode:Udma_engine.Basic ~total shape p,
                run_shape ~mode:queued_mode ~total shape p )
        in
        [
          ("shape", vs (shape_label shape));
          ("basic_cycles", vi b);
          ("queued_cycles", vi q);
          ("basic_bpc", vf (float_of_int total /. float_of_int b));
          ("queued_bpc", vf (float_of_int total /. float_of_int q));
          ("basic_pct", vf (100.0 *. float_of_int basic_contig /. float_of_int b));
          ( "queued_pct",
            vf (100.0 *. float_of_int queued_contig /. float_of_int q) );
        ])
      cases
  in
  Report.make ~id:"e15_shapes"
    ~title:
      (Printf.sprintf
         "E15: bandwidth vs transfer shape at %d total bytes (descriptor \
          overhead)"
         total)
    ~meta:[ ("total_bytes", vi total) ]
    ~columns:
      [
        ("shape", "shape");
        ("basic_cycles", "basic");
        ("queued_cycles", "queued");
        ("basic_bpc", "B/cyc basic");
        ("queued_bpc", "B/cyc queued");
        ("basic_pct", "% of contig (basic)");
        ("queued_pct", "% of contig (queued)");
      ]
    ~breakdown:(breakdown p) rows

let e15 =
  {
    exp_name = "shapes";
    exp_alias = "e15";
    exp_doc =
      "E15: bandwidth vs transfer shape — contiguous vs strided vs \
       scatter-gather at equal total bytes.";
    exp_run =
      Param.(
        let+ total = shapes_total and+ cases = shape_cases in
        fun ~quick:_ ~seed:_ -> [ report_shapes ~total ~cases ]);
    exp_anchors =
      [
        anchor "e15.bpc@contig.basic" "e15_shapes"
          (Report.Row [ ("shape", "contig") ])
          "basic_bpc";
        anchor "e15.bpc@sg256.basic" "e15_shapes"
          (Report.Row [ ("shape", "sg256") ])
          "basic_bpc";
        anchor "e15.pct@sg256.basic" "e15_shapes"
          (Report.Row [ ("shape", "sg256") ])
          "basic_pct";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E16: application workloads over the UDMA fabric (lib/app)           *)
(* ------------------------------------------------------------------ *)

module Fabric = Udma_traffic.Fabric
module App_slo = Udma_app.Slo
module Kv = Udma_app.Kv
module Halo = Udma_app.Halo
module Rpc = Udma_app.Rpc

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
let app_sweep validate (run : ?probe:(Engine.t -> unit) -> _) ~loads config =
  let configs = List.map (fun load -> (load, config load)) loads in
  List.iter
    (fun (_, c) ->
      Result.iter_error (fun msg -> raise (Sweep.Invalid_config msg)) (validate c))
    configs;
  fun () ->
    let p = probe () in
    (p, List.map (fun (load, c) -> (load, run ~probe:(watch p) c)) configs)

(* the SLO knee as a report value: the load of the first sustained
   violation, or "none" when the whole sweep holds the SLO *)
let app_knee ?slo ~loads points =
  v_opt (fun i -> vf (List.nth loads i)) "none" (App_slo.detect_knee ?slo points)

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
  let knee =
    app_knee ?slo ~loads (List.map (fun (l, r) -> (l, r.Kv.stats)) results)
  in
  Report.make ~id:"e16_kv"
    ~title:
      (Printf.sprintf
         "E16: sharded KV store, %d shards on a %d-node mesh — tail latency \
          vs offered load (zero-copy reads via deliberate update)"
         cfg.shards cfg.fabric.nodes)
    ~meta:
      [
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
        ("slo", vf (Option.value slo ~default:App_slo.default_slo));
        ("slo_knee", knee);
        ("chaos", vb cfg.chaos_links);
        ("seed", vi cfg.fabric.seed);
      ]
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
  let p = probe () in
  let rows =
    List.map
      (fun vcs ->
        let r =
          Kv.run ~probe:(watch p)
            { cfg with fabric = { cfg.fabric with vc_count = vcs } }
        in
        (("vcs", vi vcs) :: app_stat_cells r.Kv.stats)
        @ [
            ("cold_p99", vi r.Kv.cold_stats.App_slo.p99);
            ("credit_stalls", vi r.Kv.credit_stalls);
            ("drained", vb r.Kv.drained);
          ])
      vc_counts
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
  let knee =
    app_knee ?slo ~loads (List.map (fun (l, r) -> (l, overhead r)) results)
  in
  Report.make ~id:"e16_halo"
    ~title:
      (Printf.sprintf
         "E16: halo exchange, %dx%d-byte tiles on a %d-node mesh — barrier \
          latency vs send-work share (east/west halos strided)"
         cfg.tile_rows cfg.row_bytes cfg.fabric.nodes)
    ~meta:
      [
        ("nodes", vi cfg.fabric.nodes);
        ("tile_rows", vi cfg.tile_rows);
        ("row_bytes", vi cfg.row_bytes);
        ("halo_cols", vi cfg.halo_cols);
        ("iterations", vi cfg.iterations);
        ("strided_send_cycles", vi strided);
        ("contiguous_send_cycles", vi contig);
        ("slo", vf (Option.value slo ~default:App_slo.default_slo));
        ("slo_knee", knee);
        ("seed", vi cfg.fabric.seed);
      ]
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
  let knee =
    app_knee ?slo ~loads (List.map (fun (l, r) -> (l, r.Rpc.stats)) results)
  in
  Report.make ~id:"e16_rpc"
    ~title:
      (Printf.sprintf
         "E16: bursty RPC service (bursts of %d, pool %d) on a %d-node mesh \
          — arrival-to-reply tail latency vs offered server load"
         cfg.burst cfg.pool cfg.fabric.nodes)
    ~meta:
      [
        ("nodes", vi cfg.fabric.nodes);
        ("resp_bytes", vi cfg.resp_bytes);
        ("server_cycles", vi cfg.server_cycles);
        ("burst", vi cfg.burst);
        ("pool", vi cfg.pool);
        ("send_cycles", vi send_cycles);
        ("window_cycles", vi cfg.window_cycles);
        ("slo", vf (Option.value slo ~default:App_slo.default_slo));
        ("slo_knee", knee);
        ("seed", vi cfg.fabric.seed);
      ]
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
            | None -> [ kv (); halo (); rpc () ] @ if quick then [] else [ kv_vcs ]
          in
          List.map (fun run -> run ()) sweeps);
    exp_anchors =
      [
        anchor "e16.kv_p99@0.8" "e16_kv" (Report.Row [ ("load", "0.8") ]) "p99";
        anchor "e16.rpc_p99@0.8" "e16_rpc" (Report.Row [ ("load", "0.8") ]) "p99";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E17: sharded engine throughput scaling                              *)
(* ------------------------------------------------------------------ *)

module Shard_gen = Udma_traffic.Shard_gen

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
  let deterministic =
    match runs with
    | [] -> true
    | (_, r0, k0, _) :: rest ->
        let f0 = fingerprint r0 k0 in
        List.for_all (fun (_, r, k, _) -> fingerprint r k = f0) rest
  in
  let base_wall =
    match runs with (_, _, _, w) :: _ -> w | [] -> 0.0
  in
  let width =
    match runs with
    | (_, r, _, _) :: _ -> r.Load_gen.width
    | [] -> 0
  in
  Report.make ~id:"e17_simscale"
    ~title:
      (Printf.sprintf
         "E17: sharded engine throughput — events/sec vs worker domains, \
          %d-node mesh at load %.1f" cfg.nodes load)
    ~meta:
      [
        ("nodes", vi cfg.nodes);
        ("width", vi width);
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

(* ------------------------------------------------------------------ *)
(* the registry                                                        *)
(* ------------------------------------------------------------------ *)

(* Every front end derives from this list: [all_reports] (hence
   [shrimp_sim all], its [--check] anchor gate and the committed
   baselines) concatenates it in order, and bin/shrimp_sim.ml builds a
   name + eN alias command pair per entry, with one option per
   declared parameter. Adding an experiment here is the whole
   registration. *)
let experiments =
  [
    e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15; e16; e17;
    e18;
  ]

let run ?(quick = false) ?(seed = 42) e =
  (Param.resolve ~quick e.exp_run) ~quick ~seed

let all_reports ?quick ?seed () =
  List.concat_map (fun e -> run ?quick ?seed e) experiments

let anchors = List.concat_map (fun e -> e.exp_anchors) experiments
