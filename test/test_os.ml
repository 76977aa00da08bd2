(* OS-layer tests: the kernel contract of paper §6 — demand proxy
   mapping, the I1/I2/I3/I4 invariants, demand paging, pinning, and the
   traditional DMA syscall baseline. *)

module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Page_table = Udma_mmu.Page_table
module Pte = Udma_mmu.Pte
module Device = Udma_dma.Device
module Status = Udma.Status
module Initiator = Udma.Initiator
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Vm = Udma_os.Vm
module Proc = Udma_os.Proc
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module Kernel = Udma_os.Kernel
module Cost_model = Udma_os.Cost_model

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A machine with one buffer device attached to the UDMA engine. *)
let machine_with_buffer ?(mode = Udma_engine.Basic) ?(mem_pages = 64) () =
  let config = { M.default_config with M.udma_mode = Some mode; mem_pages } in
  let m = M.create ~config () in
  let udma = Option.get m.M.udma in
  let dev_bytes = 8 * Layout.page_size m.M.layout in
  let port, store = Device.buffer "buf" ~size:dev_bytes in
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
  (m, udma, port, store)

let fill_pattern n seed =
  Bytes.init n (fun i -> Char.chr ((i + seed) land 0xff))

(* ---------- end-to-end UDMA transfers ---------- *)

let test_udma_mem_to_dev () =
  let m, udma, _port, store = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"sender" in
  (* grant the device proxy pages *)
  List.iter
    (fun i ->
      check
        (Alcotest.result Alcotest.unit (Alcotest.of_pp Syscall.pp_error))
        "grant" (Ok ())
        (Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i
           ~writable:true))
    [ 0; 1 ];
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let data = fill_pattern 1024 7 in
  Kernel.write_user m proc ~vaddr:buf data;
  let cpu = Kernel.user_cpu m proc in
  let dst = Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0) in
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst ~nbytes:1024 ()
   with
  | Ok stats ->
      checki "one piece" 1 stats.Initiator.pieces;
      checkb "took cycles" true (stats.Initiator.cycles > 0)
  | Error e -> Alcotest.failf "transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  check Alcotest.bytes "data arrived" data (Bytes.sub store 0 1024);
  let c = Udma_engine.counters udma in
  checki "initiations" 1 c.Udma_engine.initiations;
  checki "completions" 1 c.Udma_engine.completions

let test_udma_dev_to_mem () =
  let m, _udma, _port, store = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"receiver" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let data = fill_pattern 512 42 in
  Bytes.blit data 0 store 0 512;
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  (* I3: the destination page must be dirty before the proxy STORE is
     allowed; touch it the honest way *)
  Kernel.touch_dirty m proc ~vaddr:buf;
  let cpu = Kernel.user_cpu m proc in
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~dst:(Initiator.Memory buf) ~nbytes:512 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  check Alcotest.bytes "data landed in user memory" data
    (Kernel.read_user m proc ~vaddr:buf ~len:512)

let test_udma_multi_page () =
  let m, _udma, _port, store = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"sender" in
  List.iter
    (fun i ->
      ignore
        (Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i
           ~writable:true))
    [ 0; 1; 2 ];
  let nbytes = 3 * 4096 in
  let buf = Kernel.alloc_buffer m proc ~bytes:nbytes in
  let data = fill_pattern nbytes 3 in
  Kernel.write_user m proc ~vaddr:buf data;
  let cpu = Kernel.user_cpu m proc in
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~nbytes ()
   with
  | Ok stats -> checki "three pieces" 3 stats.Initiator.pieces
  | Error e -> Alcotest.failf "transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  check Alcotest.bytes "all pages arrived" data (Bytes.sub store 0 nbytes)

let test_initiation_cost_is_2_8_us () =
  let m, _udma, _, _ = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:buf (fill_pattern 64 0);
  let cpu = Kernel.user_cpu m proc in
  (* warm the mappings so we measure steady-state initiation, as the
     paper does *)
  ignore
    (Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~nbytes:64 ());
  Engine.run_until_idle m.M.engine;
  match
    Initiator.initiation_cycles cpu ~layout:m.M.layout
      ~config:Initiator.default_config ~src:(Initiator.Memory buf)
      ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
      ~nbytes:64
  with
  | Ok cycles ->
      let us = Cost_model.us_of_cycles m.M.costs cycles in
      checkb
        (Printf.sprintf "~2.8us (got %.2fus, %d cycles)" us cycles)
        true
        (us > 2.0 && us < 3.6)
  | Error e -> Alcotest.failf "initiation failed: %a" Initiator.pp_error e

(* ---------- I1: atomicity across context switches ---------- *)

let test_i1_inval_on_switch () =
  let m, udma, _, _ = machine_with_buffer () in
  let p1 = Scheduler.spawn m ~name:"p1" in
  let p2 = Scheduler.spawn m ~name:"p2" in
  ignore (Syscall.map_device_proxy m p1 ~vdev_index:0 ~pdev_index:0 ~writable:true);
  ignore (Syscall.map_device_proxy m p2 ~vdev_index:1 ~pdev_index:1 ~writable:true);
  let b1 = Kernel.alloc_buffer m p1 ~bytes:4096 in
  Kernel.write_user m p1 ~vaddr:b1 (fill_pattern 128 1);
  let b2 = Kernel.alloc_buffer m p2 ~bytes:4096 in
  Kernel.write_user m p2 ~vaddr:b2 (fill_pattern 128 2);
  let cpu1 = Kernel.user_cpu m p1 in
  let cpu2 = Kernel.user_cpu m p2 in
  (* p1 executes only the STORE half of its sequence *)
  let dst1 = Layout.proxy_of m.M.layout b1 in
  ignore dst1;
  cpu1.Initiator.store ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0)
    (Int32.of_int 128);
  (match Udma_engine.state udma with
  | Udma.State_machine.Dest_loaded _ -> ()
  | s -> Alcotest.failf "expected DestLoaded, got %a" Udma.State_machine.pp_state s);
  (* p2 runs: the context switch must invalidate p1's half-initiation *)
  cpu2.Initiator.compute 1;
  (match Udma_engine.state udma with
  | Udma.State_machine.Idle -> ()
  | s -> Alcotest.failf "I1 violated: %a after switch" Udma.State_machine.pp_state s);
  (* p1 resumes with its LOAD: the status must say Idle, not start *)
  let src1 = Layout.proxy_of m.M.layout b1 in
  let st = Status.decode (cpu1.Initiator.load ~vaddr:src1) in
  checkb "not started" false st.Status.started;
  checkb "invalid flag" true st.Status.invalid;
  (* and the retrying high-level call still succeeds *)
  match
    Initiator.transfer cpu1 ~layout:m.M.layout ~src:(Initiator.Memory b1)
      ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
      ~nbytes:128 ()
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "retry failed: %a" Initiator.pp_error e

let test_i1_no_cross_process_pairing () =
  let m, udma, _, _ = machine_with_buffer () in
  let p1 = Scheduler.spawn m ~name:"p1" in
  let p2 = Scheduler.spawn m ~name:"p2" in
  ignore (Syscall.map_device_proxy m p1 ~vdev_index:0 ~pdev_index:0 ~writable:true);
  ignore (Syscall.map_device_proxy m p2 ~vdev_index:1 ~pdev_index:1 ~writable:true);
  let b1 = Kernel.alloc_buffer m p1 ~bytes:4096 in
  Kernel.write_user m p1 ~vaddr:b1 (fill_pattern 64 1);
  let b2 = Kernel.alloc_buffer m p2 ~bytes:4096 in
  Kernel.write_user m p2 ~vaddr:b2 (fill_pattern 64 2);
  (* record every started pair; none may mix p1's dest with p2's src *)
  let started = ref [] in
  Udma_engine.set_start_hook udma (fun ~src_proxy ~dest_proxy ~nbytes:_ ->
      started := (src_proxy, dest_proxy) :: !started);
  let cpu1 = Kernel.user_cpu m p1 in
  let cpu2 = Kernel.user_cpu m p2 in
  (* p1 stores (dev page 0); p2 then runs a complete transfer; p1 then
     issues its load *)
  cpu1.Initiator.store ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0) 64l;
  (match
     Initiator.transfer cpu2 ~layout:m.M.layout ~src:(Initiator.Memory b2)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:1 ~offset:0))
       ~nbytes:64 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "p2 transfer failed: %a" Initiator.pp_error e);
  let st =
    Status.decode (cpu1.Initiator.load ~vaddr:(Layout.proxy_of m.M.layout b1))
  in
  checkb "p1's load did not start anything" false st.Status.started;
  Engine.run_until_idle m.M.engine;
  let p1_dev = Kernel.vdev_addr m ~index:0 ~offset:0 in
  List.iter
    (fun (src, dest) ->
      if dest = p1_dev then
        Alcotest.failf "cross-process pairing: %#x -> %#x" src dest)
    !started;
  checki "exactly one transfer" 1 (List.length !started)

(* ---------- I3: content consistency ---------- *)

let test_i3_clean_page_write_protects_proxy () =
  let m, _udma, _, store = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Bytes.blit (fill_pattern 256 9) 0 store 0 256;
  let cpu = Kernel.user_cpu m proc in
  (* fresh page is clean: the proxy STORE must take the I3 upgrade
     fault and succeed, leaving the page dirty *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~dst:(Initiator.Memory buf) ~nbytes:256 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "incoming transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  let vpn = buf / Layout.page_size m.M.layout in
  let pte = Option.get (Page_table.find proc.Proc.page_table vpn) in
  checkb "page dirty after incoming DMA" true pte.Pte.dirty;
  (* clean the page: the proxy page must become read-only again *)
  checkb "cleaned" true (Vm.clean_page m proc ~vpn);
  checkb "dirty cleared" false pte.Pte.dirty;
  let pvpn = M.proxy_vpn m vpn in
  let ppte = Option.get (Page_table.find proc.Proc.page_table pvpn) in
  checkb "proxy write-protected (I3)" false ppte.Pte.writable;
  (* a new incoming transfer upgrade-faults again and re-dirties *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~dst:(Initiator.Memory buf) ~nbytes:256 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "second transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  checkb "dirty again" true pte.Pte.dirty

let test_i3_readonly_page_never_destination () =
  let m, _udma, _, _ = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  (* map a read-only page by hand *)
  let vpn = 40 in
  let frame = Vm.map_new_page m proc ~vpn ~writable:false () in
  ignore frame;
  let vaddr = vpn * Layout.page_size m.M.layout in
  let cpu = Kernel.user_cpu m proc in
  (* as a source it is fine ... *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory vaddr)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~nbytes:64 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "read-only source failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  (* ... as a destination the proxy STORE must segfault *)
  match
    Initiator.transfer cpu ~layout:m.M.layout
      ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
      ~dst:(Initiator.Memory vaddr) ~nbytes:64 ()
  with
  | exception Vm.Segfault _ -> ()
  | Ok _ -> Alcotest.fail "read-only page accepted as DMA destination"
  | Error e ->
      Alcotest.failf "expected segfault, got error %a" Initiator.pp_error e

(* ---------- I2: mapping consistency ---------- *)

let test_i2_eviction_invalidates_proxy () =
  let m, _udma, _, _ = machine_with_buffer ~mem_pages:16 () in
  (* 16 frames, 2 reserved: tight memory to force evictions *)
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:buf (fill_pattern 4096 5);
  let cpu = Kernel.user_cpu m proc in
  (* create the proxy mapping via a real transfer *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~nbytes:64 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  let vpn = buf / Layout.page_size m.M.layout in
  let pvpn = M.proxy_vpn m vpn in
  checkb "proxy mapping exists" true
    (Page_table.find proc.Proc.page_table pvpn <> None);
  (* hammer memory until buf's page gets evicted *)
  let hog = Scheduler.spawn m ~name:"hog" in
  let rec hammer i =
    if Vm.frame_of_vpn m proc ~vpn <> None && i < 64 then begin
      ignore (Kernel.alloc_buffer m hog ~bytes:4096);
      hammer (i + 1)
    end
  in
  hammer 0;
  checkb "page evicted" true (Vm.frame_of_vpn m proc ~vpn = None);
  (* I2: proxy mapping must be gone *)
  checkb "proxy invalidated (I2)" true
    (Page_table.find proc.Proc.page_table pvpn = None);
  (* and the data must survive a reload + new transfer *)
  Scheduler.switch_to m proc;
  check Alcotest.bytes "data survives eviction" (fill_pattern 4096 5)
    (Kernel.read_user m proc ~vaddr:buf ~len:4096)

(* ---------- I4: register consistency ---------- *)

let test_i4_inflight_page_not_evicted () =
  let m, udma, _, _ = machine_with_buffer ~mem_pages:16 () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:buf (fill_pattern 4096 11);
  let vpn = buf / Layout.page_size m.M.layout in
  let frame = Option.get (Vm.frame_of_vpn m proc ~vpn) in
  let cpu = Kernel.user_cpu m proc in
  (* initiate but do not wait: engine now busy with buf's frame *)
  let src_p = Layout.proxy_of m.M.layout buf in
  cpu.Initiator.store ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0) 4096l;
  let st = Status.decode (cpu.Initiator.load ~vaddr:src_p) in
  checkb "started" true st.Status.started;
  checkb "frame reported busy (I4)" true (Udma_engine.mem_frame_busy udma ~frame);
  (* eviction pressure must pick other frames *)
  let hog = Scheduler.spawn m ~name:"hog" in
  for _ = 1 to 6 do
    ignore (Kernel.alloc_buffer m hog ~bytes:4096)
  done;
  checkb "in-flight frame still resident" true
    (Vm.frame_of_vpn m proc ~vpn = Some frame);
  Engine.run_until_idle m.M.engine;
  checkb "frame free after completion" false
    (Udma_engine.mem_frame_busy udma ~frame)

let test_i4_destloaded_dest_protected () =
  let m, udma, _, _ = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.touch_dirty m proc ~vaddr:buf;
  let vpn = buf / Layout.page_size m.M.layout in
  let frame = Option.get (Vm.frame_of_vpn m proc ~vpn) in
  let cpu = Kernel.user_cpu m proc in
  (* STORE half only, with a memory destination: DESTINATION register
     holds buf's page *)
  cpu.Initiator.store ~vaddr:(Layout.proxy_of m.M.layout buf) 256l;
  checkb "latched dest reported busy (I4)" true
    (Udma_engine.mem_frame_busy udma ~frame);
  (* the kernel can clear it with an Inval *)
  Udma_engine.invalidate udma;
  checkb "free after inval" false (Udma_engine.mem_frame_busy udma ~frame)

(* ---------- I3 alternative policy: proxy dirty union (§6) ---------- *)

let machine_union ?(mem_pages = 64) () =
  let config =
    { M.default_config with
      M.udma_mode = Some Udma_engine.Basic;
      mem_pages;
      i3_policy = M.Proxy_dirty_union }
  in
  let m = M.create ~config () in
  let udma = Option.get m.M.udma in
  let port, store = Device.buffer "buf" ~size:(8 * Layout.page_size m.M.layout) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
  (m, udma, port, store)

let test_union_no_upgrade_fault () =
  let m, _udma, _, store = machine_union () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  Bytes.blit (fill_pattern 128 3) 0 store 0 128;
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  (* fresh page is clean; under the union policy the incoming transfer
     needs no dirty-upgrade fault at all *)
  let cpu = Kernel.user_cpu m proc in
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~dst:(Initiator.Memory buf) ~nbytes:128 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  checki "no upgrade faults" 0 (Udma_obs.Metrics.get m.M.metrics "vm.dirty_upgrades");
  check Alcotest.bytes "data landed" (fill_pattern 128 3)
    (Kernel.read_user m proc ~vaddr:buf ~len:128);
  (* the proxy page, not the real page, carries the dirty bit *)
  let vpn = buf / Layout.page_size m.M.layout in
  let ppte = Option.get (Page_table.find proc.Proc.page_table (M.proxy_vpn m vpn)) in
  checkb "proxy pte dirty" true ppte.Pte.dirty

let test_union_data_survives_eviction () =
  let m, _udma, _, store = machine_union ~mem_pages:16 () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  Bytes.blit (fill_pattern 4096 6) 0 store 0 4096;
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let cpu = Kernel.user_cpu m proc in
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~dst:(Initiator.Memory buf) ~nbytes:4096 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  let vpn = buf / Layout.page_size m.M.layout in
  let pte = Option.get (Page_table.find proc.Proc.page_table vpn) in
  checkb "real pte may stay clean under union" true (not pte.Pte.dirty || true);
  (* force the page out: the union dirty check must write it to swap *)
  let hog = Scheduler.spawn m ~name:"hog" in
  let rec force i =
    if Vm.frame_of_vpn m proc ~vpn <> None && i < 64 then begin
      ignore (Kernel.alloc_buffer m hog ~bytes:4096);
      force (i + 1)
    end
  in
  force 0;
  checkb "evicted" true (Vm.frame_of_vpn m proc ~vpn = None);
  Scheduler.switch_to m proc;
  check Alcotest.bytes "incoming DMA data survived paging (union I3)"
    (fill_pattern 4096 6)
    (Kernel.read_user m proc ~vaddr:buf ~len:4096)

let test_union_clean_keeps_proxy_writable () =
  let m, _udma, _, _store = machine_union () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let cpu = Kernel.user_cpu m proc in
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~dst:(Initiator.Memory buf) ~nbytes:64 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  let vpn = buf / Layout.page_size m.M.layout in
  checkb "cleaned" true (Vm.clean_page m proc ~vpn);
  let ppte = Option.get (Page_table.find proc.Proc.page_table (M.proxy_vpn m vpn)) in
  checkb "proxy stays writable (no I3 write-protect)" true ppte.Pte.writable;
  checkb "proxy dirty cleared" false ppte.Pte.dirty;
  (* the next incoming transfer needs no fault at all *)
  let faults_before = proc.Proc.faults in
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~dst:(Initiator.Memory buf) ~nbytes:64 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "transfer failed: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  checki "no new faults on the fast path" faults_before proc.Proc.faults;
  checkb "proxy dirty again" true ppte.Pte.dirty

(* ---------- demand paging ---------- *)

let test_paging_roundtrip () =
  let m, _udma, _, _ = machine_with_buffer ~mem_pages:16 () in
  let p1 = Scheduler.spawn m ~name:"p1" in
  let buf = Kernel.alloc_buffer m p1 ~bytes:4 * 4096 in
  ignore buf;
  Alcotest.(check pass) "alloc ok" () ()

let test_demand_paging_preserves_data () =
  let m, _udma, _, _ = machine_with_buffer ~mem_pages:16 () in
  let p1 = Scheduler.spawn m ~name:"p1" in
  let bufs =
    List.init 20 (fun i ->
        let v = Kernel.alloc_buffer m p1 ~bytes:4096 in
        Kernel.write_user m p1 ~vaddr:v (fill_pattern 4096 i);
        (v, i))
  in
  (* touching them all again forces page-in of evicted ones *)
  List.iter
    (fun (v, i) ->
      check Alcotest.bytes
        (Printf.sprintf "buffer %d intact" i)
        (fill_pattern 4096 i)
        (Kernel.read_user m p1 ~vaddr:v ~len:4096))
    bufs;
  checkb "evictions happened" true
    (Udma_obs.Metrics.get m.M.metrics "vm.evictions" > 0)

(* ---------- traditional DMA baseline ---------- *)

let test_traditional_dma_to_device () =
  let config = { M.default_config with M.udma_mode = None } in
  let m = M.create ~config () in
  let proc = Scheduler.spawn m ~name:"p" in
  let port, store = Device.buffer "dev" ~size:65536 in
  let buf = Kernel.alloc_buffer m proc ~bytes:8192 in
  let data = fill_pattern 8192 13 in
  Kernel.write_user m proc ~vaddr:buf data;
  (match
     Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:buf ~nbytes:8192
       ~port ~dev_addr:0 ~strategy:Syscall.Pin_user_pages
   with
  | Ok cycles ->
      (* the kernel path costs thousands of cycles *)
      checkb
        (Printf.sprintf "expensive (%d cycles)" cycles)
        true (cycles > 3000)
  | Error e -> Alcotest.failf "syscall failed: %a" Syscall.pp_error e);
  check Alcotest.bytes "device got the data" data (Bytes.sub store 0 8192)

let test_traditional_dma_copy_strategy () =
  let config = { M.default_config with M.udma_mode = None } in
  let m = M.create ~config () in
  let proc = Scheduler.spawn m ~name:"p" in
  let port, store = Device.buffer "dev" ~size:65536 in
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let data = fill_pattern 3000 29 in
  Kernel.write_user m proc ~vaddr:buf data;
  (match
     Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:buf ~nbytes:3000
       ~port ~dev_addr:0 ~strategy:Syscall.Copy_through_buffer
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "syscall failed: %a" Syscall.pp_error e);
  check Alcotest.bytes "device got the data" data (Bytes.sub store 0 3000)

let test_traditional_dma_from_device_marks_dirty () =
  let config = { M.default_config with M.udma_mode = None } in
  let m = M.create ~config () in
  let proc = Scheduler.spawn m ~name:"p" in
  let port, store = Device.buffer "dev" ~size:65536 in
  Bytes.blit (fill_pattern 4096 17) 0 store 0 4096;
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  (match
     Syscall.dma_transfer m proc ~dir:Syscall.From_device ~vaddr:buf
       ~nbytes:4096 ~port ~dev_addr:0 ~strategy:Syscall.Pin_user_pages
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "syscall failed: %a" Syscall.pp_error e);
  let vpn = buf / Layout.page_size m.M.layout in
  let pte = Option.get (Page_table.find proc.Proc.page_table vpn) in
  checkb "kernel marked the page dirty" true pte.Pte.dirty;
  check Alcotest.bytes "data arrived" (fill_pattern 4096 17)
    (Kernel.read_user m proc ~vaddr:buf ~len:4096)

let test_udma_vs_traditional_cost_gap () =
  let m, _udma, _, _ = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:buf (fill_pattern 1024 1);
  let cpu = Kernel.user_cpu m proc in
  let dst = Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0) in
  ignore
    (Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst ~nbytes:64 ());
  Engine.run_until_idle m.M.engine;
  let udma_cycles =
    match
      Initiator.initiation_cycles cpu ~layout:m.M.layout
        ~config:Initiator.default_config ~src:(Initiator.Memory buf) ~dst
        ~nbytes:64
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "udma failed: %a" Initiator.pp_error e
  in
  Engine.run_until_idle m.M.engine;
  (* same machine, kernel path to the same device *)
  let port, _ = Device.buffer "d2" ~size:65536 in
  let trad_cycles =
    match
      Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:buf ~nbytes:64
        ~port ~dev_addr:0 ~strategy:Syscall.Pin_user_pages
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "traditional failed: %a" Syscall.pp_error e
  in
  checkb
    (Printf.sprintf "UDMA (%d) ≪ traditional (%d)" udma_cycles trad_cycles)
    true
    (trad_cycles > 5 * udma_cycles)

(* ---------- cost model ---------- *)

let test_cost_model () =
  let c = Cost_model.default in
  Alcotest.(check (float 0.01)) "2.8us initiation" 2.78
    (Cost_model.us_of_cycles c
       (Cost_model.udma_initiation_estimate c ~alignment_check_cycles:100));
  checki "1 cycle per byte, rounded up" 9 (Cost_model.copy_cycles c 9);
  checki "copy zero" 0 (Cost_model.copy_cycles c 0);
  let h = Cost_model.hippi in
  let fixed =
    h.Cost_model.syscall + h.Cost_model.descriptor_build
    + h.Cost_model.dma_start + h.Cost_model.interrupt
  in
  (* >=340us of fixed overhead, the paper's ">350us" ballpark *)
  checkb "hippi fixed overhead ~343us" true
    (Cost_model.us_of_cycles h fixed > 330.0)

(* ---------- scheduler ---------- *)

let test_scheduler_round_robin () =
  let m, _udma, _, _ = machine_with_buffer () in
  let p1 = Scheduler.spawn m ~name:"p1" in
  let p2 = Scheduler.spawn m ~name:"p2" in
  let p3 = Scheduler.spawn m ~name:"p3" in
  checkb "first is current" true (Scheduler.current m = Some p1);
  Scheduler.preempt m;
  checkb "rotated to p2" true (Scheduler.current m = Some p2);
  Scheduler.preempt m;
  checkb "rotated to p3" true (Scheduler.current m = Some p3);
  Scheduler.preempt m;
  checkb "wrapped to p1" true (Scheduler.current m = Some p1);
  checki "switches counted" 3 (Udma_obs.Metrics.get m.M.metrics "sched.switches")

let test_scheduler_exit () =
  let m, _udma, _, _ = machine_with_buffer () in
  let p1 = Scheduler.spawn m ~name:"p1" in
  let p2 = Scheduler.spawn m ~name:"p2" in
  Scheduler.exit_proc m p1;
  checkb "p1 exited" true (p1.Proc.state = Proc.Exited);
  checkb "p2 scheduled" true (Scheduler.current m = Some p2);
  Scheduler.preempt m;
  checkb "only p2 remains" true (Scheduler.current m = Some p2)

let test_switch_flushes_tlb () =
  let m, _udma, _, _ = machine_with_buffer () in
  let p1 = Scheduler.spawn m ~name:"p1" in
  let p2 = Scheduler.spawn m ~name:"p2" in
  let b1 = Kernel.alloc_buffer m p1 ~bytes:4096 in
  let cpu1 = Kernel.user_cpu m p1 in
  ignore (cpu1.Initiator.load ~vaddr:b1);
  ignore (cpu1.Initiator.load ~vaddr:b1);
  let hits_before = Udma_mmu.Tlb.hits (Udma_mmu.Mmu.tlb m.M.mmu) in
  checkb "warm TLB hits" true (hits_before > 0);
  Scheduler.switch_to m p2;
  Scheduler.switch_to m p1;
  let misses_before = Udma_mmu.Tlb.misses (Udma_mmu.Mmu.tlb m.M.mmu) in
  ignore (cpu1.Initiator.load ~vaddr:b1);
  checkb "cold after switch" true
    (Udma_mmu.Tlb.misses (Udma_mmu.Mmu.tlb m.M.mmu) > misses_before)

(* ---------- syscall errors + kernel helpers ---------- *)

let test_syscall_bad_address () =
  let config = { M.default_config with M.udma_mode = None } in
  let m = M.create ~config () in
  let proc = Scheduler.spawn m ~name:"p" in
  let port, _ = Device.buffer "d" ~size:65536 in
  checkb "unmapped vaddr" true
    (Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:(100 * 4096)
       ~nbytes:64 ~port ~dev_addr:0 ~strategy:Syscall.Pin_user_pages
     = Error Syscall.Bad_address);
  checkb "zero size" true
    (Syscall.dma_transfer m proc ~dir:Syscall.To_device ~vaddr:4096 ~nbytes:0
       ~port ~dev_addr:0 ~strategy:Syscall.Pin_user_pages
     = Error Syscall.Bad_size);
  checkb "bad grant indexes" true
    (Syscall.map_device_proxy m proc ~vdev_index:(-1) ~pdev_index:0
       ~writable:true
     = Error Syscall.Bad_address)

let test_kernel_unaligned_access () =
  let m, _udma, _, _ = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let cpu = Kernel.user_cpu m proc in
  checkb "unaligned load raises" true
    (try ignore (cpu.Initiator.load ~vaddr:(buf + 2)); false
     with Invalid_argument _ -> true)

let test_kernel_user_copy_across_pages () =
  let m, _udma, _, _ = machine_with_buffer ~mem_pages:16 () in
  let proc = Scheduler.spawn m ~name:"p" in
  let buf = Kernel.alloc_buffer m proc ~bytes:(3 * 4096) in
  let data = fill_pattern 10_000 21 in
  (* straddles three pages at an odd offset *)
  Kernel.write_user m proc ~vaddr:(buf + 500) data;
  check Alcotest.bytes "round trip across pages" data
    (Kernel.read_user m proc ~vaddr:(buf + 500) ~len:10_000)

(* ---------- vm corner cases ---------- *)

let test_unmap_page_cleans_up () =
  let m, _udma, _, _ = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:buf (fill_pattern 64 1);
  let cpu = Kernel.user_cpu m proc in
  ignore
    (Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~nbytes:64 ());
  Engine.run_until_idle m.M.engine;
  let vpn = buf / Layout.page_size m.M.layout in
  checkb "proxy mapped" true
    (Page_table.find proc.Proc.page_table (M.proxy_vpn m vpn) <> None);
  Vm.unmap_page m proc ~vpn;
  checkb "real gone" true (Page_table.find proc.Proc.page_table vpn = None);
  checkb "proxy gone (I2)" true
    (Page_table.find proc.Proc.page_table (M.proxy_vpn m vpn) = None);
  checkb "touching it now segfaults" true
    (try ignore (cpu.Initiator.load ~vaddr:buf); false
     with Vm.Segfault _ -> true)

let test_unmap_pinned_fails () =
  let m, _udma, _, _ = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let vpn = buf / Layout.page_size m.M.layout in
  let frame = Vm.pin m proc ~vpn in
  checkb "unmap refuses pinned" true
    (try Vm.unmap_page m proc ~vpn; false with Failure _ -> true);
  Vm.unpin m ~frame;
  Vm.unmap_page m proc ~vpn

let test_pin_pages_in_swapped_page () =
  let m, _udma, _, _ = machine_with_buffer ~mem_pages:16 () in
  let proc = Scheduler.spawn m ~name:"p" in
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:buf (fill_pattern 4096 8);
  let vpn = buf / Layout.page_size m.M.layout in
  (* force it out *)
  let hog = Scheduler.spawn m ~name:"hog" in
  let rec force i =
    if Vm.frame_of_vpn m proc ~vpn <> None && i < 64 then begin
      ignore (Kernel.alloc_buffer m hog ~bytes:4096);
      force (i + 1)
    end
  in
  force 0;
  checkb "swapped out" true (Vm.frame_of_vpn m proc ~vpn = None);
  let frame = Vm.pin m proc ~vpn in
  checkb "resident again" true (Vm.frame_of_vpn m proc ~vpn = Some frame);
  check Alcotest.bytes "contents back" (fill_pattern 4096 8)
    (Kernel.read_user m proc ~vaddr:buf ~len:4096);
  Vm.unpin m ~frame

let test_clean_deferred_during_transfer () =
  let m, _udma, _, store = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  ignore (Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true);
  Bytes.blit (fill_pattern 4096 4) 0 store 0 4096;
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.touch_dirty m proc ~vaddr:buf;
  let vpn = buf / Layout.page_size m.M.layout in
  let cpu = Kernel.user_cpu m proc in
  (* initiate an incoming transfer and try to clean mid-flight: the
     paper's race rule says the dirty bit must not be cleared *)
  cpu.Initiator.store ~vaddr:(Layout.proxy_of m.M.layout buf) 4096l;
  let st =
    Status.decode
      (cpu.Initiator.load ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0))
  in
  checkb "started" true st.Status.started;
  checkb "clean deferred while DMA in flight" false (Vm.clean_page m proc ~vpn);
  checki "deferral counted" 1 (Udma_obs.Metrics.get m.M.metrics "vm.clean_deferred");
  Engine.run_until_idle m.M.engine;
  checkb "clean succeeds after completion" true (Vm.clean_page m proc ~vpn)

(* ---------- initiator page splitting ---------- *)

(* §8's optimistic split passes the full remaining count and lets the
   hardware clamp each piece at the first page boundary of either side:
   a 9,000-byte transfer from 100 bytes into a page to the start of a
   device page takes one piece per stretch between boundaries of the
   two, counted here, and moves every byte. *)
let test_optimistic_split_pieces () =
  let m, _udma, _, store = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  List.iter
    (fun i ->
      ignore
        (Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i ~writable:true))
    [ 0; 1; 2 ];
  let buf = Kernel.alloc_buffer m proc ~bytes:(3 * 4096) in
  let nbytes = 9000 and src = buf + 100 in
  let data = fill_pattern nbytes 2 in
  Kernel.write_user m proc ~vaddr:src data;
  let dst = Kernel.vdev_addr m ~index:0 ~offset:0 in
  let page = Udma_mmu.Layout.page_size m.M.layout in
  let rec pieces s d left =
    if left <= 0 then 0
    else
      let n = min left (min (page - (s mod page)) (page - (d mod page))) in
      1 + pieces (s + n) (d + n) (left - n)
  in
  let expected = pieces src dst nbytes in
  checkb "the transfer crosses pages on both sides" true (expected > 3);
  match
    Initiator.transfer (Kernel.user_cpu m proc) ~layout:m.M.layout
      ~src:(Initiator.Memory src) ~dst:(Initiator.Device dst) ~nbytes ()
  with
  | Ok stats ->
      Engine.run_until_idle m.M.engine;
      checki "one piece per page-bounded stretch" expected stats.Initiator.pieces;
      check Alcotest.bytes "every byte moved" data (Bytes.sub store 0 nbytes)
  | Error e -> Alcotest.failf "transfer: %a" Initiator.pp_error e

let test_gather_on_basic_hardware () =
  (* gather uses the queued retry protocol but must degrade gracefully
     on the basic engine (busy-wait between pieces) *)
  let m, _udma, _, store = machine_with_buffer () in
  let proc = Scheduler.spawn m ~name:"p" in
  List.iter
    (fun i ->
      ignore
        (Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i
           ~writable:true))
    [ 0; 1 ];
  let b1 = Kernel.alloc_buffer m proc ~bytes:4096 in
  let b2 = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:b1 (fill_pattern 256 1);
  Kernel.write_user m proc ~vaddr:b2 (fill_pattern 256 2);
  let cpu = Kernel.user_cpu m proc in
  (match
     Initiator.transfer_gather cpu ~layout:m.M.layout
       ~pieces:
         [
           (Initiator.Memory b1,
            Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0), 256);
           (Initiator.Memory b2,
            Initiator.Device (Kernel.vdev_addr m ~index:1 ~offset:0), 256);
         ]
       ()
   with
  | Ok stats -> checki "two pieces" 2 stats.Initiator.pieces
  | Error e -> Alcotest.failf "gather: %a" Initiator.pp_error e);
  Engine.run_until_idle m.M.engine;
  check Alcotest.bytes "piece 1" (fill_pattern 256 1) (Bytes.sub store 0 256);
  check Alcotest.bytes "piece 2" (fill_pattern 256 2) (Bytes.sub store 4096 256)

(* ---------- scheduler/VM churn against the UDMA engine ---------- *)

(* A deschedule while a DMA is in flight: the context switch performs
   the I1 Inval store, which resets any partially initiated sequence —
   but the engine is stateless across switches and the transfer in
   flight must run to completion untouched. *)
let test_deschedule_during_inflight_dma () =
  let m, udma, _, store = machine_with_buffer () in
  let p1 = Scheduler.spawn m ~name:"p1" in
  let p2 = Scheduler.spawn m ~name:"p2" in
  ignore (Syscall.map_device_proxy m p1 ~vdev_index:0 ~pdev_index:0 ~writable:true);
  let buf = Kernel.alloc_buffer m p1 ~bytes:4096 in
  Kernel.write_user m p1 ~vaddr:buf (fill_pattern 1024 21);
  let cpu1 = Kernel.user_cpu m p1 in
  cpu1.Initiator.store ~vaddr:(Kernel.vdev_addr m ~index:0 ~offset:0) 1024l;
  let st =
    Status.decode (cpu1.Initiator.load ~vaddr:(Layout.proxy_of m.M.layout buf))
  in
  checkb "transfer started" true st.Status.started;
  let invals_before = (Udma_engine.counters udma).Udma_engine.invals in
  Scheduler.switch_to m p2;
  let c = Udma_engine.counters udma in
  checkb "the switch performed the I1 Inval" true
    (c.Udma_engine.invals > invals_before);
  checki "the in-flight transfer was not aborted" 0 c.Udma_engine.aborts;
  Engine.run_until_idle m.M.engine;
  check Alcotest.bytes "data arrived intact" (fill_pattern 1024 21)
    (Bytes.sub store 0 1024);
  checki "one completion" 1
    (Udma_engine.counters udma).Udma_engine.completions;
  (* the descheduled process reschedules and can initiate afresh *)
  Scheduler.switch_to m p1;
  match
    Initiator.transfer cpu1 ~layout:m.M.layout ~src:(Initiator.Memory buf)
      ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
      ~nbytes:1024 ()
  with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "post-reschedule transfer failed: %a" Initiator.pp_error e

(* Eviction pressure while requests sit in the hardware queue: the I4
   replacement scan consults the queue's per-frame reference counters,
   so neither the active transfer's frame nor a queued request's frame
   may be paged out until the engine drains. *)
let test_evict_during_queued_transfer () =
  let m, udma, _, store =
    machine_with_buffer
      ~mode:(Udma_engine.Queued { depth = 4 })
      ~mem_pages:16 ()
  in
  let proc = Scheduler.spawn m ~name:"p" in
  List.iter
    (fun i ->
      ignore
        (Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i
           ~writable:true))
    [ 0; 1 ];
  let b1 = Kernel.alloc_buffer m proc ~bytes:4096 in
  let b2 = Kernel.alloc_buffer m proc ~bytes:4096 in
  Kernel.write_user m proc ~vaddr:b1 (fill_pattern 4096 31);
  Kernel.write_user m proc ~vaddr:b2 (fill_pattern 4096 32);
  let page = Layout.page_size m.M.layout in
  let f1 = Option.get (Vm.frame_of_vpn m proc ~vpn:(b1 / page)) in
  let f2 = Option.get (Vm.frame_of_vpn m proc ~vpn:(b2 / page)) in
  let cpu = Kernel.user_cpu m proc in
  (* back-to-back initiations: the machine returns to Idle on accept,
     so the second request lands in the queue behind the first *)
  let issue dev buf =
    cpu.Initiator.store ~vaddr:(Kernel.vdev_addr m ~index:dev ~offset:0) 4096l;
    Status.decode (cpu.Initiator.load ~vaddr:(Layout.proxy_of m.M.layout buf))
  in
  checkb "first accepted" true (issue 0 b1).Status.started;
  checkb "second accepted" true (issue 1 b2).Status.started;
  checki "two outstanding" 2 (Udma_engine.outstanding udma);
  checkb "queued frame refcounted (I4)" true
    (Udma_engine.refcount udma ~frame:f2 > 0);
  (* allocation pressure: the clock scan must step around both frames *)
  let hog = Scheduler.spawn m ~name:"hog" in
  for _ = 1 to 6 do
    ignore (Kernel.alloc_buffer m hog ~bytes:4096)
  done;
  checkb "in-flight frame survived the pressure" true
    (Vm.frame_of_vpn m proc ~vpn:(b1 / page) = Some f1);
  checkb "queued frame survived the pressure" true
    (Vm.frame_of_vpn m proc ~vpn:(b2 / page) = Some f2);
  Engine.run_until_idle m.M.engine;
  check Alcotest.bytes "first transfer's data arrived" (fill_pattern 4096 31)
    (Bytes.sub store 0 4096);
  check Alcotest.bytes "queued transfer's data arrived" (fill_pattern 4096 32)
    (Bytes.sub store 4096 4096);
  checkb "frames free once the queue drains" false
    (Udma_engine.mem_frame_busy udma ~frame:f1
    || Udma_engine.mem_frame_busy udma ~frame:f2)

(* ---------- frame owners mirror the page tables ---------- *)

type vm_op =
  | Map of int * int  (* process, vpn *)
  | Page_out
  | Page_in of int * int
  | Pin of int * int
  | Unpin
  | Unmap of int * int

let print_vm_op = function
  | Map (p, v) -> Printf.sprintf "map %d:%d" p v
  | Page_out -> "page-out"
  | Page_in (p, v) -> Printf.sprintf "page-in %d:%d" p v
  | Pin (p, v) -> Printf.sprintf "pin %d:%d" p v
  | Unpin -> "unpin"
  | Unmap (p, v) -> Printf.sprintf "unmap %d:%d" p v

let gen_vm_ops =
  let open QCheck.Gen in
  let page = pair (int_range 0 1) (int_range 0 11) in
  list_size (int_range 1 60)
    (frequency
       [ (4, map (fun (p, v) -> Map (p, v)) page); (2, return Page_out);
         (2, map (fun (p, v) -> Page_in (p, v)) page);
         (1, map (fun (p, v) -> Pin (p, v)) page); (1, return Unpin);
         (2, map (fun (p, v) -> Unmap (p, v)) page) ])

(* The owner the VM records for [frame]: the process and page it backs. *)
let frame_owner m frame =
  let o = M.owner m frame in
  if o == M.no_owner then None else Some (o.M.pid, o.M.vpn)

(* Every owned frame backs the present page its owner names, and caches
   that page's own entry; every present user page's frame names that
   page as its owner. *)
let owners_mirror_page_tables m =
  let frames = Udma_memory.Phys_mem.frames m.M.mem in
  let owned_ok frame =
    let o = M.owner m frame in
    o == M.no_owner
    ||
    match M.find_proc m ~pid:o.M.pid with
    | None -> false
    | Some p -> (
        match Page_table.find p.Proc.page_table o.M.vpn with
        | Some pte -> pte == o.M.pte && pte.Pte.present && pte.Pte.ppage = frame
        | None -> false)
  in
  let rec frames_ok f = f >= frames || (owned_ok f && frames_ok (f + 1)) in
  frames_ok 0
  && List.for_all
       (fun p ->
         List.for_all
           (fun (vpn, (pte : Pte.t)) ->
             vpn >= Layout.mem_pages m.M.layout
             || (not pte.Pte.present)
             || frame_owner m pte.Pte.ppage = Some (p.Proc.pid, vpn))
           (Page_table.entries p.Proc.page_table))
       m.M.procs

let prop_frame_owners =
  QCheck.Test.make ~count:200 ~name:"frame owners = present mappings"
    (QCheck.make ~print:(QCheck.Print.list print_vm_op) gen_vm_ops)
    (fun ops ->
      let config = { M.default_config with M.mem_pages = 8 } in
      let m = M.create ~config () in
      let procs = [| Scheduler.spawn m ~name:"a"; Scheduler.spawn m ~name:"b" |] in
      let pinned = ref [] in
      let apply = function
        | Map (p, vpn) -> ignore (Vm.map_new_page m procs.(p) ~vpn ())
        | Page_out -> Udma_memory.Frame_allocator.free m.M.alloc (Vm.evict_one m)
        | Page_in (p, vpn) -> ignore (Vm.page_in m procs.(p) ~vpn)
        | Pin (p, vpn) -> pinned := Vm.pin m procs.(p) ~vpn :: !pinned
        | Unpin -> (
            match !pinned with
            | frame :: rest ->
                Vm.unpin m ~frame;
                pinned := rest
            | [] -> ())
        | Unmap (p, vpn) -> Vm.unmap_page m procs.(p) ~vpn
      in
      List.iteri
        (fun i op ->
          (try apply op with Invalid_argument _ | Failure _ | Vm.Out_of_memory -> ());
          if not (owners_mirror_page_tables m) then
            QCheck.Test.fail_reportf "after op %d (%s): frame owners disagree with \
                                      the page tables" i (print_vm_op op))
        ops;
      true)

let () =
  Alcotest.run "udma_os"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "mem→dev transfer" `Quick test_udma_mem_to_dev;
          Alcotest.test_case "dev→mem transfer" `Quick test_udma_dev_to_mem;
          Alcotest.test_case "multi-page transfer" `Quick test_udma_multi_page;
          Alcotest.test_case "initiation ≈2.8µs" `Quick
            test_initiation_cost_is_2_8_us;
        ] );
      ( "invariant-I1",
        [
          Alcotest.test_case "inval on context switch" `Quick
            test_i1_inval_on_switch;
          Alcotest.test_case "no cross-process pairing" `Quick
            test_i1_no_cross_process_pairing;
        ] );
      ( "invariant-I3",
        [
          Alcotest.test_case "clean write-protects proxy" `Quick
            test_i3_clean_page_write_protects_proxy;
          Alcotest.test_case "read-only page never a destination" `Quick
            test_i3_readonly_page_never_destination;
        ] );
      ( "invariant-I2",
        [
          Alcotest.test_case "eviction invalidates proxy" `Quick
            test_i2_eviction_invalidates_proxy;
        ] );
      ( "invariant-I4",
        [
          Alcotest.test_case "in-flight page not evicted" `Quick
            test_i4_inflight_page_not_evicted;
          Alcotest.test_case "latched DEST protected, Inval clears" `Quick
            test_i4_destloaded_dest_protected;
        ] );
      ( "i3-union-policy",
        [
          Alcotest.test_case "no upgrade fault" `Quick test_union_no_upgrade_fault;
          Alcotest.test_case "data survives eviction" `Quick
            test_union_data_survives_eviction;
          Alcotest.test_case "clean keeps proxy writable" `Quick
            test_union_clean_keeps_proxy_writable;
        ] );
      ( "paging",
        [
          Alcotest.test_case "alloc across pages" `Quick test_paging_roundtrip;
          Alcotest.test_case "data survives eviction" `Quick
            test_demand_paging_preserves_data;
        ] );
      ( "cost-model", [ Alcotest.test_case "calibration" `Quick test_cost_model ] );
      ( "scheduler",
        [
          Alcotest.test_case "round robin" `Quick test_scheduler_round_robin;
          Alcotest.test_case "exit" `Quick test_scheduler_exit;
          Alcotest.test_case "switch flushes TLB" `Quick test_switch_flushes_tlb;
        ] );
      ( "syscall-kernel",
        [
          Alcotest.test_case "bad address / size" `Quick test_syscall_bad_address;
          Alcotest.test_case "unaligned access" `Quick test_kernel_unaligned_access;
          Alcotest.test_case "user copy across pages" `Quick
            test_kernel_user_copy_across_pages;
        ] );
      ( "vm-corners",
        [
          Alcotest.test_case "unmap cleans up" `Quick test_unmap_page_cleans_up;
          Alcotest.test_case "unmap pinned fails" `Quick test_unmap_pinned_fails;
          Alcotest.test_case "pin pages in swapped page" `Quick
            test_pin_pages_in_swapped_page;
          Alcotest.test_case "clean deferred during transfer" `Quick
            test_clean_deferred_during_transfer;
          QCheck_alcotest.to_alcotest prop_frame_owners;
        ] );
      ( "churn",
        [
          Alcotest.test_case "deschedule during in-flight DMA" `Quick
            test_deschedule_during_inflight_dma;
          Alcotest.test_case "evict during queued transfer" `Quick
            test_evict_during_queued_transfer;
        ] );
      ( "initiator",
        [
          Alcotest.test_case "optimistic split by page" `Quick
            test_optimistic_split_pieces;
          Alcotest.test_case "gather on basic hardware" `Quick
            test_gather_on_basic_hardware;
        ] );
      ( "traditional-dma",
        [
          Alcotest.test_case "pin strategy to device" `Quick
            test_traditional_dma_to_device;
          Alcotest.test_case "copy strategy to device" `Quick
            test_traditional_dma_copy_strategy;
          Alcotest.test_case "from device marks dirty" `Quick
            test_traditional_dma_from_device_marks_dirty;
          Alcotest.test_case "UDMA ≪ traditional cost" `Quick
            test_udma_vs_traditional_cost_gap;
        ] );
    ]
