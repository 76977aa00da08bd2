module Engine = Udma_sim.Engine
module Report = Udma_obs.Report
module Layout = Udma_mmu.Layout
module Initiator = Udma.Initiator
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module Kernel = Udma_os.Kernel
module Cost_model = Udma_os.Cost_model
module System = Udma_shrimp.System
module Messaging = Udma_shrimp.Messaging
module Pio_fifo = Udma_devices.Pio_fifo
open Experiment

(* The largest message a channel between two default nodes carries: the
   channel takes one page more than the message and its flag word need,
   and it has the sender's device-proxy pages to take them from. *)
let channel_max =
  let c = M.default_config in
  ((c.M.dev_pages - 1) * c.M.page_size) - 4

(* A channel from node 0 to node 1 big enough for [max_size] bytes, and a
   sender buffer holding the pattern: [(sys, channel, buffer, sender cpu,
   receiver cpu)]. *)
let channel_rig ?mode p ~max_size =
  let sys, snd, sender, rcv, receiver = node_pair ?mode p in
  let m = snd.System.machine in
  let page_size = Layout.page_size m.M.layout in
  let pages = ((max_size + 4) + page_size - 1) / page_size + 1 in
  let ch =
    Messaging.connect sys ~sender:(0, sender) ~receiver:(1, receiver) ~pages ()
  in
  let buf = pattern_buffer m sender ~bytes:(pages * page_size) max_size in
  let cpu_snd = Kernel.user_cpu m sender in
  (sys, ch, buf, cpu_snd, Kernel.user_cpu rcv.System.machine receiver)

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
  let mode = if queued then Udma_engine.Queued { depth = 8 } else Udma_engine.Basic in
  let max_size = List.fold_left Int.max 4096 sizes in
  let sys, ch, buf, cpu, _ = channel_rig ~mode p ~max_size in
  let send nbytes =
    ok_or_fail Messaging.pp_send_error
      (Messaging.send_nowait ch cpu ~src_vaddr:buf ~nbytes ~pipelined:queued ())
  in
  (* warm every mapping (proxy pages, TLB) with one full-size send *)
  send max_size;
  System.run_until_idle sys;
  let raw =
    List.map
      (fun size ->
        let t0 = Engine.now (System.engine sys) in
        for _ = 1 to messages do
          send size
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
            ~quick:[ 512; 1024; 4096; 16384 ]
            ~check:
              (List.find_map (fun s ->
                   if s land 3 = 0 then within 4 channel_max s
                   else Some (Printf.sprintf "%d is not a 4-byte multiple" s)))
            figure8_sizes
        and+ messages =
          v "messages" Int ~docv:"N" ~doc:"Messages per size point." ~quick:8
            ~check:positive figure8_messages
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
      List.map
        (fun (at, size) ->
          anchor ("e1.pct_of_max@" ^ at) "e1_figure8" (Report.Row [ ("size", size) ])
            "pct_of_max")
        [ ("512B", "512"); ("4KB", "4096") ];
  }

(* ------------------------------------------------------------------ *)
(* E2: initiation costs                                                *)
(* ------------------------------------------------------------------ *)

let report_costs () =
  let p = probe () in
  let m, _udma, port = buffer_rig p in
  let proc = Scheduler.spawn m ~name:"p" in
  grant_dev m proc ~pages:2;
  let buf = pattern_buffer m proc ~bytes:8192 8192 in
  let cpu = Kernel.user_cpu m proc in
  let src = Initiator.Memory buf in
  let dst = Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0) in
  let transfer () =
    ok_or_fail Initiator.pp_error
      (Initiator.transfer cpu ~layout:m.M.layout ~src ~dst ~nbytes:4096 ())
  in
  (* warm mappings *)
  ignore (transfer ());
  Engine.run_until_idle m.M.engine;
  let udma_init =
    ok_or_fail Initiator.pp_error
      (Initiator.initiation_cycles cpu ~layout:m.M.layout
         ~config:Initiator.default_config ~src ~dst ~nbytes:4096)
  in
  Engine.run_until_idle m.M.engine;
  let udma_4k = (transfer ()).Initiator.cycles in
  Engine.run_until_idle m.M.engine;
  let trad strategy nbytes =
    ok_or_fail Syscall.pp_error
      (Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:buf ~nbytes
         ~port ~dev_addr:0 ~strategy)
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

let hippi_config =
  {
    M.default_config with
    M.udma_mode = None;
    costs = Cost_model.hippi;
    mem_pages = 256;
    virt_pages = 512;
  }

(* a pinned transfer holds every page of its block in a frame at once *)
let hippi_max =
  (hippi_config.M.mem_pages - hippi_config.M.reserved_frames)
  * hippi_config.M.page_size

let report_hippi ?(blocks = hippi_blocks) () =
  let p = probe () in
  let m = M.create ~config:hippi_config () in
  watch p m.M.engine;
  let proc = Scheduler.spawn m ~name:"p" in
  let port = Udma_dma.Device.null "hippi" in
  let max_block = List.fold_left Int.max 4096 blocks in
  let buf = pattern_buffer m proc ~bytes:max_block (Int.min max_block 65536) in
  let mhz = float_of_int m.M.costs.Cost_model.mhz in
  (* raw channel rate: one 4-byte word per [burst_word_cycles] *)
  let channel_mbps =
    4.0 *. mhz /. float_of_int Udma_dma.Bus.((timing m.M.bus).burst_word_cycles)
  in
  let rows =
    List.map
      (fun block ->
        let cycles =
          ok_or_fail Syscall.pp_error
            (Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:buf
               ~nbytes:block ~port ~dev_addr:0 ~strategy:Syscall.Pin_user_pages)
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
            ~quick:[ 1024; 4096; 65536; 262144 ]
            ~check:(List.find_map (within 1 hippi_max))
            hippi_blocks
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
      ok_or_fail Messaging.pp_send_error
        (Messaging.send ch cpu_snd ~src_vaddr:buf ~nbytes:size ())
    in
    ignore
      (ok_or_fail Format.pp_print_string (Messaging.recv_wait ch cpu_rcv ~seq ()));
    total := !total + (Engine.now (System.engine sys) - t0);
    System.run_until_idle sys
  done;
  float_of_int !total /. float_of_int trials

(* each PIO FIFO's depth in words: a message's length word and payload
   are all pushed before the receiver drains any *)
let pio_words = 16384

let pio_pair () =
  let config = { M.default_config with M.udma_mode = None; mem_pages = 64 } in
  let engine = Engine.create ~mhz:config.M.costs.Cost_model.mhz () in
  let mk () =
    M.create ~config:{ config with M.shared_engine = Some engine } ()
  in
  let ma = mk () and mb = mk () in
  let fifo () = Pio_fifo.create ~engine ~capacity_words:pio_words () in
  let fa = fifo () and fb = fifo () in
  Pio_fifo.connect fa fb;
  let install m f =
    Pio_fifo.install_at f m.M.bus
      ~base:(Layout.dev_proxy_base m.M.layout)
      ~size:(Layout.page_size m.M.layout)
  in
  install ma fa;
  install mb fb;
  (engine, ma, mb)

let pio_latency p ~size ~trials =
  let engine, ma, mb = pio_pair () in
  watch p engine;
  let pa = Scheduler.spawn ma ~name:"pio-snd" in
  let pb = Scheduler.spawn mb ~name:"pio-rcv" in
  grant_dev ma pa ~pages:1;
  grant_dev mb pb ~pages:1;
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
        let take = Int.min avail (expected - got) in
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

(* each size is sent as a 4-byte multiple of at least one word *)
let word_size size = Int.max 4 (size land lnot 3)

let report_crossover ?(sizes = crossover_sizes) ?(trials = crossover_trials) ()
    =
  let p = probe () in
  let sizes = List.map word_size sizes in
  (* UDMA side: one 2-node system reused across sizes *)
  let max_size = List.fold_left Int.max 4096 sizes in
  let sys, ch, buf, cpu_snd, cpu_rcv = channel_rig p ~max_size in
  (* warm *)
  ignore (udma_latency sys ch cpu_snd cpu_rcv ~buf ~size:max_size ~trials:1);
  let rows =
    List.map
      (fun size ->
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
            ~quick:[ 64; 512; 4096 ]
            ~check:
              (List.find_map (fun s ->
                   within 4 (4 * (pio_words - 1)) (word_size s)))
            crossover_sizes
        and+ trials =
          v "trials" Int ~docv:"N" ~doc:"Trials per size." ~quick:2
            ~check:positive crossover_trials
        in
        fun ~quick:_ ~seed:_ -> [ report_crossover ~sizes ~trials () ]);
    exp_anchors = [];
  }

(* ------------------------------------------------------------------ *)
(* E5: queueing ablation                                               *)
(* ------------------------------------------------------------------ *)

let one_big_transfer ~mode ~total p =
  let m, _udma, _ = buffer_rig ~mode p in
  let proc = Scheduler.spawn m ~name:"p" in
  let page_size = Layout.page_size m.M.layout in
  let pages = (total + page_size - 1) / page_size in
  grant_dev m proc ~pages;
  let buf = pattern_buffer m proc ~bytes:total (Int.min total 65536) in
  let cpu = Kernel.user_cpu m proc in
  let src = Initiator.Memory buf in
  let dst = Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0) in
  (* warm one page of mappings, then measure the full transfer cold on
     data but warm on code paths *)
  ignore
    (ok_or_fail Initiator.pp_error
       (Initiator.transfer cpu ~layout:m.M.layout ~src ~dst ~nbytes:4096 ()));
  Engine.run_until_idle m.M.engine;
  let call =
    match mode with
    | Udma_engine.Basic -> Initiator.transfer
    | Udma_engine.Queued _ -> Initiator.transfer_queued
  in
  (ok_or_fail Initiator.pp_error
     (call cpu ~layout:m.M.layout ~src ~dst ~nbytes:total ()))
    .Initiator.cycles

(* a transfer's device pages are all granted at once *)
let queueing_max = M.default_config.M.dev_pages * M.default_config.M.page_size
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
            ~quick:[ 16384; 65536 ]
            ~check:(List.find_map (within 1 queueing_max))
            queueing_sizes
        and+ depths =
          v "depths" (List Int) ~docv:"D,..." ~doc:"Hardware queue depths."
            ~quick:[ 4; 8 ] ~check:all_positive queueing_depths
        in
        fun ~quick:_ ~seed:_ -> [ report_queueing ~total_sizes ~depths () ]);
    exp_anchors = [];
  }
