module Engine = Udma_sim.Engine
module Metrics = Udma_obs.Metrics
module Report = Udma_obs.Report
module Layout = Udma_mmu.Layout
module Initiator = Udma.Initiator
module M = Udma_os.Machine
module Vm = Udma_os.Vm
module Scheduler = Udma_os.Scheduler
module Kernel = Udma_os.Kernel
module Cost_model = Udma_os.Cost_model
module System = Udma_shrimp.System
open Experiment

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
        let m, udma, _ = buffer_rig p in
        let p1 = Scheduler.spawn m ~name:"p1" in
        let p2 = Scheduler.spawn m ~name:"p2" in
        grant_dev m p1 ~pages:1;
        Udma_os.Syscall.(
          ok_or_fail pp_error
            (map_device_proxy m p2 ~vdev_index:1 ~pdev_index:1 ~writable:true));
        let b1 = pattern_buffer m p1 ~bytes:4096 512 in
        let b2 = pattern_buffer m p2 ~bytes:4096 512 in
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
        Udma.Udma_engine.set_start_hook udma (fun ~src_proxy ~dest_proxy ~nbytes:_ ->
            let legal =
              (src_proxy = phys_src b1 p1 && dest_proxy = dev0)
              || (src_proxy = phys_src b2 p2 && dest_proxy = dev1)
            in
            if not legal then incr violations);
        let rng = Udma_sim.Rng.create (seed + pct) in
        Scheduler.set_preempt_hook m
          (Some (fun _ -> pct > 0 && Udma_sim.Rng.int rng 100 < pct));
        let retries = ref 0 and cycles = ref 0 in
        for i = 1 to transfers do
          let cpu, buf, dev =
            if i land 1 = 0 then (cpu2, b2, dev1) else (cpu1, b1, dev0)
          in
          let s =
            ok_or_fail Initiator.pp_error
              (Initiator.transfer cpu ~layout:m.M.layout
                 ~src:(Initiator.Memory buf) ~dst:(Initiator.Device dev)
                 ~nbytes:512 ())
          in
          retries := !retries + s.Initiator.retries;
          cycles := !cycles + s.Initiator.cycles
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
            ~doc:"Preemption probabilities (%)." ~quick:[ 0; 20 ]
            (* at 100 % every retry is preempted and no transfer starts *)
            ~check:(List.find_map (within 0 99))
            atomicity_probs
        and+ transfers =
          v "transfers" Int ~docv:"N" ~doc:"Transfers per probability point."
            ~quick:40 ~check:positive atomicity_transfers
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
  let m, _udma, _ = buffer_rig ~mem_pages:24 p in
  let p1 = Scheduler.spawn m ~name:"streamer" in
  let hog = Scheduler.spawn m ~name:"hog" in
  grant_dev m p1 ~pages:1;
  let buf = pattern_buffer m p1 ~bytes:4096 4096 in
  let cpu = Kernel.user_cpu m p1 in
  let transfers = 60 in
  for _ = 1 to transfers do
    (* initiate without waiting so the engine is busy while the hog
       allocates and forces evictions *)
    cpu.Initiator.store
      ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0)
      (Int32.of_int 4096);
    let st = cpu.Initiator.load ~vaddr:(Layout.proxy_of m.M.layout buf) in
    if not Udma.Status.(ok (decode st)) then failwith "report_pinning: initiation failed";
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
  let m, udma, _ = buffer_rig ~mem_pages:16 p in
  let proc = Scheduler.spawn m ~name:"p" in
  grant_dev m proc ~pages:1;
  let costs = m.M.costs in
  let cpu = Kernel.user_cpu m proc in
  let buf = pattern_buffer m proc ~bytes:4096 64 in
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
  Udma.Udma_engine.invalidate udma;
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
  let m, _udma, _ = buffer_rig ~i3_policy:policy p in
  let page_size = Layout.page_size m.M.layout in
  let proc = Scheduler.spawn m ~name:"sink" in
  grant_dev m proc ~pages:1;
  let bufs =
    Array.init pages (fun _ -> Kernel.alloc_buffer m proc ~bytes:page_size)
  in
  let cpu = Kernel.user_cpu m proc in
  let t0 = Engine.now m.M.engine in
  for i = 0 to transfers - 1 do
    let buf = bufs.(i mod pages) in
    ignore
      (ok_or_fail Initiator.pp_error
         (Initiator.transfer cpu ~layout:m.M.layout
            ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
            ~dst:(Initiator.Memory buf) ~nbytes:1024 ()));
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

(* The cycles [f] takes and the packets node 0 sends meanwhile. *)
let counted sys (snd : System.node) f =
  let sent () = Udma_shrimp.Network_interface.packets_sent snd.System.ni in
  let sent0 = sent () and t0 = Engine.now (System.engine sys) in
  f ();
  let cycles = Engine.now (System.engine sys) - t0 in
  System.run_until_idle sys;
  (cycles, sent () - sent0)

(* deliberate: one UDMA transfer per update *)
let deliberate_updates ~offsets ~len p =
  let sys, snd, sp, _, rp = node_pair p in
  let m = snd.System.machine in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  System.import_export sys ~node:0 ~proc:sp ~first_index:0 export;
  let buf = pattern_buffer m sp ~bytes:4096 4096 in
  let cpu = Kernel.user_cpu m sp in
  let transfer off =
    ignore
      (ok_or_fail Initiator.pp_error
         (Initiator.transfer cpu ~layout:m.M.layout
            ~src:(Initiator.Memory (buf + off))
            ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:off))
            ~nbytes:len ()))
  in
  (* warm *)
  transfer 0;
  System.run_until_idle sys;
  counted sys snd (fun () -> List.iter transfer offsets)

(* automatic: plain stores to a bound page *)
let automatic_updates ~offsets ~len p =
  let sys, snd, sp, _, rp = node_pair p in
  let m = snd.System.machine in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  let buf = pattern_buffer m sp ~bytes:4096 4096 in
  System.auto_bind sys ~node:0 ~proc:sp ~vaddr:buf export;
  let cpu = Kernel.user_cpu m sp in
  (* warm the TLB *)
  ignore (cpu.Initiator.load ~vaddr:buf);
  counted sys snd (fun () ->
      List.iter
        (fun off ->
          for w = 0 to (len / 4) - 1 do
            cpu.Initiator.store ~vaddr:(buf + off + (w * 4)) (Int32.of_int w)
          done)
        offsets)

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
