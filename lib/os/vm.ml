module Engine = Udma_sim.Engine
module Metrics = Udma_obs.Metrics
module Trace = Udma_sim.Trace
module Layout = Udma_mmu.Layout
module Pte = Udma_mmu.Pte
module Page_table = Udma_mmu.Page_table
module Mmu = Udma_mmu.Mmu
module Phys_mem = Udma_memory.Phys_mem
module Frame_allocator = Udma_memory.Frame_allocator
module Backing_store = Udma_memory.Backing_store
module Dma_engine = Udma_dma.Dma_engine
module Udma_engine = Udma.Udma_engine
module M = Machine

exception Segfault of {
  pid : int;
  vaddr : int;
  access : Mmu.access;
  reason : string;
}

exception Out_of_memory

let () =
  Printexc.register_printer (function
    | Segfault { pid; vaddr; access; reason } ->
        Some
          (Format.asprintf "Vm.Segfault(pid=%d, %#x, %a: %s)" pid vaddr
             Mmu.pp_access access reason)
    | Out_of_memory -> Some "Vm.Out_of_memory"
    | _ -> None)

let segfault proc vaddr access reason =
  raise (Segfault { pid = proc.Proc.pid; vaddr; access; reason })

let is_user_mem_vpn m vpn =
  vpn >= 0 && vpn < Layout.mem_pages m.M.layout

(* ---------- I2: proxy-mapping invalidation ---------- *)

(* Any change to vpn→frame invalidates PROXY(vpn)→PROXY(frame). *)
let invalidate_proxy_mapping m proc ~vpn =
  let pvpn = M.proxy_vpn m vpn in
  (match Page_table.find proc.Proc.page_table pvpn with
  | Some _ ->
      Page_table.remove proc.Proc.page_table pvpn;
      Metrics.bump m.M.os.M.vm_proxy_invalidations
  | None -> ());
  Mmu.flush_tlb_page m.M.mmu ~vpn:pvpn

(* ---------- I4: may this frame be replaced right now? ---------- *)

let frame_dma_busy m frame =
  Machine.charge m m.M.costs.Cost_model.remap_check;
  match m.M.udma with
  | Some u -> Udma_engine.mem_frame_busy u ~frame
  | None ->
      Dma_engine.mem_page_in_flight m.M.dma
        ~page_size:(Layout.page_size m.M.layout) frame

(* ---------- I3: content consistency ---------- *)

let proxy_pte m proc ~vpn =
  Page_table.find proc.Proc.page_table (M.proxy_vpn m vpn)

(* Under [Proxy_dirty_union] the paging code must treat a page as dirty
   when either it or its proxy page is dirty (§6's alternative). *)
let effective_dirty (m : M.t) proc ~vpn (pte : Pte.t) =
  match m.M.i3_policy with
  | M.Write_upgrade -> pte.Pte.dirty
  | M.Proxy_dirty_union -> (
      pte.Pte.dirty
      ||
      match proxy_pte m proc ~vpn with
      | Some p -> p.Pte.dirty
      | None -> false)

let clear_dirty (m : M.t) proc ~vpn (pte : Pte.t) =
  pte.Pte.dirty <- false;
  match m.M.i3_policy with
  | M.Write_upgrade -> ()
  | M.Proxy_dirty_union -> (
      match proxy_pte m proc ~vpn with
      | Some p -> p.Pte.dirty <- false
      | None -> ())

(* ---------- paging mechanics ---------- *)

let read_frame m frame =
  Phys_mem.read_bytes m.M.mem
    ~addr:(Phys_mem.frame_base m.M.mem frame)
    ~len:(Phys_mem.page_size m.M.mem)

let write_frame m frame data =
  Phys_mem.write_bytes m.M.mem ~addr:(Phys_mem.frame_base m.M.mem frame) data

let page_out_frame m proc ~vpn ~frame ~(pte : Pte.t) =
  let key = (proc.Proc.pid, vpn) in
  if effective_dirty m proc ~vpn pte then begin
    Machine.charge m m.M.costs.Cost_model.page_io;
    Metrics.bump m.M.os.M.vm_page_outs;
    let data = read_frame m frame in
    match Hashtbl.find_opt m.M.swap_slots key with
    | Some slot -> Backing_store.overwrite m.M.swap slot data
    | None -> Hashtbl.replace m.M.swap_slots key (Backing_store.store m.M.swap data)
  end
  else if not (Hashtbl.mem m.M.swap_slots key) then
    (* never written and never swapped: preserve contents anyway so a
       clean page loaded by the kernel survives *)
    Hashtbl.replace m.M.swap_slots key
      (Backing_store.store m.M.swap (read_frame m frame));
  clear_dirty m proc ~vpn pte;
  invalidate_proxy_mapping m proc ~vpn;
  pte.Pte.present <- false;
  pte.Pte.ppage <- -1;
  M.set_owner m frame M.no_owner;
  Mmu.flush_tlb_page m.M.mmu ~vpn
(* ownership of [frame] passes to the caller of [evict_one] *)

(* Clock replacement honouring pins and I4. *)
let evict_one m =
  let frames = Phys_mem.frames m.M.mem in
  let try_frame frame =
    let o = M.owner m frame in
    let pte = o.M.pte in
    if o == M.no_owner || not pte.Pte.present || M.frame_is_pinned m frame then
      `Skip
    else if frame_dma_busy m frame then begin
      Metrics.bump m.M.os.M.vm_i4_skips;
      `Busy
    end
    else if pte.Pte.referenced then begin
      (* second chance *)
      pte.Pte.referenced <- false;
      `Skip
    end
    else
      match M.find_proc m ~pid:o.M.pid with
      | Some proc -> `Victim (proc, o.M.vpn, frame, pte)
      | None -> `Skip
  in
  let rec sweep remaining saw_busy =
    if remaining = 0 then
      if saw_busy then `All_busy else `None
    else begin
      let frame = m.M.clock_hand in
      m.M.clock_hand <-
        (if m.M.clock_hand + 1 >= frames then 0 else m.M.clock_hand + 1);
      match try_frame frame with
      | `Victim v -> `Found v
      | `Busy -> sweep (remaining - 1) true
      | `Skip -> sweep (remaining - 1) saw_busy
    end
  in
  (* two full passes: the first clears referenced bits *)
  let rec attempt tries =
    match sweep (2 * frames) false with
    | `Found (proc, vpn, frame, pte) ->
        Metrics.bump m.M.os.M.vm_evictions;
        page_out_frame m proc ~vpn ~frame ~pte;
        frame
    | `All_busy when tries > 0 ->
        (* §6: "wait until the transfer finishes" *)
        ignore
          (Engine.wait_for m.M.engine
             ~poll_cost:m.M.costs.Cost_model.remap_check (fun () ->
               not (Dma_engine.busy m.M.dma)));
        attempt (tries - 1)
    | `All_busy | `None -> raise Out_of_memory
  in
  attempt 8

let alloc_frame m =
  match Frame_allocator.alloc m.M.alloc with
  | Some f -> f
  | None -> evict_one m

(* ---------- mapping ---------- *)

let map_new_page m proc ~vpn ?(writable = true) () =
  if not (is_user_mem_vpn m vpn) then
    invalid_arg "Vm.map_new_page: not a user-memory page";
  (match Page_table.find proc.Proc.page_table vpn with
  | Some pte when pte.Pte.present ->
      invalid_arg "Vm.map_new_page: already mapped"
  | Some _ | None -> ());
  let frame = alloc_frame m in
  Phys_mem.fill_frame m.M.mem ~frame 0;
  let pte = Pte.make ~writable ~ppage:frame () in
  Page_table.set proc.Proc.page_table vpn pte;
  M.set_owner m frame { M.pid = proc.Proc.pid; vpn; pte };
  Metrics.bump m.M.os.M.vm_maps;
  frame

let frame_of_vpn _m proc ~vpn =
  match Page_table.find proc.Proc.page_table vpn with
  | Some pte when pte.Pte.present -> Some pte.Pte.ppage
  | Some _ | None -> None

let unmap_page m proc ~vpn =
  match Page_table.find proc.Proc.page_table vpn with
  | None -> invalid_arg "Vm.unmap_page: not mapped"
  | Some pte ->
      if pte.Pte.present then begin
        let frame = pte.Pte.ppage in
        if M.frame_is_pinned m frame then
          failwith "Vm.unmap_page: frame is pinned";
        if frame_dma_busy m frame then
          failwith "Vm.unmap_page: frame busy with DMA (I4)";
        M.set_owner m frame M.no_owner;
        Frame_allocator.free m.M.alloc frame
      end;
      invalidate_proxy_mapping m proc ~vpn;
      Page_table.remove proc.Proc.page_table vpn;
      Mmu.flush_tlb_page m.M.mmu ~vpn;
      (match Hashtbl.find_opt m.M.swap_slots (proc.Proc.pid, vpn) with
      | Some slot ->
          Backing_store.release m.M.swap slot;
          Hashtbl.remove m.M.swap_slots (proc.Proc.pid, vpn)
      | None -> ())

let map_device_proxy m proc ~vdev_index ~pdev_index ~writable =
  let dev_pages = Layout.dev_pages m.M.layout in
  if vdev_index < 0 || vdev_index >= dev_pages
     || pdev_index < 0 || pdev_index >= dev_pages then
    invalid_arg "Vm.map_device_proxy: index out of range";
  let base_page = Layout.page_of_addr m.M.layout (Layout.dev_proxy_base m.M.layout) in
  Page_table.set proc.Proc.page_table (base_page + vdev_index)
    (Pte.make ~writable ~ppage:(base_page + pdev_index) ());
  Metrics.bump m.M.os.M.vm_device_proxy_maps

(* ---------- paging entry points ---------- *)

let page_in m proc ~vpn =
  let key = (proc.Proc.pid, vpn) in
  match Page_table.find proc.Proc.page_table vpn with
  | Some pte when not pte.Pte.present -> (
      match Hashtbl.find_opt m.M.swap_slots key with
      | None -> invalid_arg "Vm.page_in: page has no swap slot"
      | Some slot ->
          let frame = alloc_frame m in
          Machine.charge m m.M.costs.Cost_model.page_io;
          Metrics.bump m.M.os.M.vm_page_ins;
          write_frame m frame (Backing_store.load m.M.swap slot);
          pte.Pte.present <- true;
          pte.Pte.ppage <- frame;
          pte.Pte.dirty <- false;
          pte.Pte.referenced <- false;
          M.set_owner m frame { M.pid = proc.Proc.pid; vpn; pte };
          frame)
  | Some pte -> pte.Pte.ppage
  | None -> invalid_arg "Vm.page_in: page not mapped"

let clean_page m proc ~vpn =
  match Page_table.find proc.Proc.page_table vpn with
  | Some pte when pte.Pte.present && effective_dirty m proc ~vpn pte ->
      let frame = pte.Pte.ppage in
      (* the paper's race rule: never clear the dirty bit while a DMA
         transfer to the page is in progress *)
      if frame_dma_busy m frame then begin
        Metrics.bump m.M.os.M.vm_clean_deferred;
        false
      end
      else begin
        Machine.charge m m.M.costs.Cost_model.page_io;
        Metrics.bump m.M.os.M.vm_cleans;
        let key = (proc.Proc.pid, vpn) in
        let data = read_frame m frame in
        (match Hashtbl.find_opt m.M.swap_slots key with
        | Some slot -> Backing_store.overwrite m.M.swap slot data
        | None ->
            Hashtbl.replace m.M.swap_slots key
              (Backing_store.store m.M.swap data));
        clear_dirty m proc ~vpn pte;
        (match m.M.i3_policy with
        | M.Write_upgrade ->
            (* I3: the proxy page must become read-only again *)
            let pvpn = M.proxy_vpn m vpn in
            (match Page_table.find proc.Proc.page_table pvpn with
            | Some ppte -> ppte.Pte.writable <- false
            | None -> ());
            Mmu.flush_tlb_page m.M.mmu ~vpn:pvpn
        | M.Proxy_dirty_union ->
            (* the proxy page keeps its own dirty bit; no protection
               change is needed *)
            ());
        true
      end
  | Some _ -> true (* clean or absent: nothing to do *)
  | None -> invalid_arg "Vm.clean_page: page not mapped"

(* ---------- fault handling (§6) ---------- *)

let charge_fault m = Machine.charge m m.M.costs.Cost_model.page_fault

(* The three cases for a memory-proxy fault (§6, Maintaining I2), plus
   the I3 write-upgrade. *)
let handle_proxy_fault m proc access ~vaddr =
  proc.Proc.proxy_faults <- proc.Proc.proxy_faults + 1;
  Metrics.bump m.M.os.M.vm_proxy_faults;
  let vmem_addr = Layout.unproxy m.M.layout vaddr in
  let vpn = Layout.page_of_addr m.M.layout vmem_addr in
  let pvpn = M.proxy_vpn m vpn in
  match Page_table.find proc.Proc.page_table vpn with
  | None ->
      (* case 3: vmem_page not accessible — like an illegal access *)
      segfault proc vaddr access "proxy fault on unmapped page"
  | Some real ->
      let frame =
        if real.Pte.present then real.Pte.ppage
        else begin
          (* case 2: valid but not in core — page it in first *)
          ignore (page_in m proc ~vpn);
          real.Pte.ppage
        end
      in
      (* case 1: create PROXY(vmem_page) -> PROXY(pmem_page) *)
      Machine.charge m m.M.costs.Cost_model.proxy_map;
      (match access with
      | Mmu.Write when not real.Pte.writable ->
          segfault proc vaddr access
            "proxy write to read-only page (read-only pages may only \
             be transfer sources)"
      | Mmu.Write | Mmu.Read -> ());
      let writable =
        match m.M.i3_policy with
        | M.Proxy_dirty_union ->
            (* the proxy page is writable whenever the real page is;
               its own dirty bit tracks incoming transfers *)
            real.Pte.writable
        | M.Write_upgrade ->
            (* I3: writable only while the real page is dirty *)
            (match access with
            | Mmu.Write when not real.Pte.dirty ->
                (* upgrade: mark the real page dirty, enable the write *)
                Machine.charge m m.M.costs.Cost_model.dirty_upgrade;
                Metrics.bump m.M.os.M.vm_dirty_upgrades;
                real.Pte.dirty <- true
            | Mmu.Write | Mmu.Read -> ());
            real.Pte.writable && real.Pte.dirty
      in
      Page_table.set proc.Proc.page_table pvpn
        (Pte.make ~writable ~ppage:(M.proxy_ppage m frame) ());
      Mmu.flush_tlb_page m.M.mmu ~vpn:pvpn

let handle_fault m proc access ~vaddr =
  (* Fault service is kernel work regardless of what the CPU was doing
     when the reference trapped. *)
  Engine.with_category m.M.engine Engine.Profiler.Kernel @@ fun () ->
  let t0 = Engine.now m.M.engine in
  charge_fault m;
  proc.Proc.faults <- proc.Proc.faults + 1;
  Metrics.bump m.M.os.M.vm_faults;
  let region = Layout.region_of m.M.layout vaddr in
  let kind =
    match region with
    | Some Layout.Mem_proxy -> "proxy"
    | Some Layout.Mem -> "page"
    | Some Layout.Dev_proxy -> "dev-proxy"
    | None -> "illegal"
  in
  Trace.record m.M.trace ~time:t0 Udma_obs.Event.Vm
    (Udma_obs.Event.Fault { vaddr; kind });
  Fun.protect
    ~finally:(fun () ->
      Metrics.sample m.M.os.M.vm_fault_cycles (Engine.now m.M.engine - t0))
  @@ fun () ->
  match region with
  | None -> segfault proc vaddr access "address outside every region"
  | Some Layout.Mem -> (
      let vpn = Layout.page_of_addr m.M.layout vaddr in
      match Page_table.find proc.Proc.page_table vpn with
      | Some pte when not pte.Pte.present ->
          ignore (page_in m proc ~vpn);
          (* any remap invalidated the proxy page (I2); it will fault
             back in on demand *)
          ()
      | Some pte -> (
          match access with
          | Mmu.Write when not pte.Pte.writable ->
              segfault proc vaddr access "write to read-only page"
          | Mmu.Write | Mmu.Read ->
              (* spurious: stale TLB already handled by the MMU *)
              ())
      | None -> segfault proc vaddr access "unmapped user page")
  | Some Layout.Mem_proxy -> handle_proxy_fault m proc access ~vaddr
  | Some Layout.Dev_proxy ->
      segfault proc vaddr access
        "device proxy pages are granted only by the mapping system call"

(* ---------- traditional-DMA pinning ---------- *)

let pin m proc ~vpn =
  let frame =
    match Page_table.find proc.Proc.page_table vpn with
    | Some pte when pte.Pte.present -> pte.Pte.ppage
    | Some _ -> page_in m proc ~vpn
    | None -> invalid_arg "Vm.pin: page not mapped"
  in
  Machine.charge m m.M.costs.Cost_model.pin_page;
  Metrics.bump m.M.os.M.vm_pins;
  let n = Option.value (Hashtbl.find_opt m.M.pinned frame) ~default:0 in
  Hashtbl.replace m.M.pinned frame (n + 1);
  frame

let unpin m ~frame =
  Machine.charge m m.M.costs.Cost_model.unpin_page;
  match Hashtbl.find_opt m.M.pinned frame with
  | Some 1 -> Hashtbl.remove m.M.pinned frame
  | Some n when n > 1 -> Hashtbl.replace m.M.pinned frame (n - 1)
  | Some _ | None -> invalid_arg "Vm.unpin: frame not pinned"
