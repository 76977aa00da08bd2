module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Mmu = Udma_mmu.Mmu
module Page_table = Udma_mmu.Page_table
module Pte = Udma_mmu.Pte
module Phys_mem = Udma_memory.Phys_mem
module Bus = Udma_dma.Bus
module Initiator = Udma.Initiator
module M = Machine

let max_fault_retries = 8

(* Translate, resolving page faults as they come. *)
let rec translate m proc access vaddr ~tries =
  if tries > max_fault_retries then
    raise
      (Vm.Segfault
         {
           pid = proc.Proc.pid;
           vaddr;
           access;
           reason = "fault loop: mapping keeps disappearing";
         })
  else
    match Mmu.translate m.M.mmu proc.Proc.page_table access vaddr with
    | paddr -> paddr
    | exception Mmu.Fault _ ->
        Vm.handle_fault m proc access ~vaddr;
        translate m proc access vaddr ~tries:(tries + 1)

(* Executing any instruction of [proc] means it was scheduled. *)
let run_as m proc =
  match m.M.current with
  | Some cur when cur == proc -> ()
  | Some _ | None -> Scheduler.switch_to m proc

(* One user-level memory reference up to the bus: preemption check,
   translation with fault handling, cost accounting. Returns the
   physical address the caller routes over the bus. *)
let user_access m proc access vaddr =
  if vaddr land 3 <> 0 then
    invalid_arg (Printf.sprintf "user access: unaligned address %#x" vaddr);
  Scheduler.maybe_preempt m;
  run_as m proc;
  let paddr = translate m proc access vaddr ~tries:0 in
  let costs = m.M.costs in
  let base =
    if Bus.is_memory m.M.bus paddr then costs.Cost_model.cached_ref
    else costs.Cost_model.uncached_ref
  in
  let cost =
    if Mmu.tlb_hit m.M.mmu then base else base + costs.Cost_model.tlb_miss
  in
  Machine.charge_as m Engine.Profiler.User_ref cost;
  paddr

let is_proxy m vaddr =
  match Layout.region_of m.M.layout vaddr with
  | Some (Layout.Mem_proxy | Layout.Dev_proxy) -> true
  | Some Layout.Mem | None -> false

(* The completion poll's bulk step: account the next [k] loads of
   [vaddr], which has just been loaded, all at once. Each would repeat
   that load exactly: no preemption can intervene and nothing is
   traced; the UDMA engine answers loads with a status probe that
   keeps its state ([Idle] or [Transferring]); the proxy address hits
   a present TLB entry, so each costs [uncached_ref]; and [k] is small
   enough that no event fires before the last one ends, so no flag the
   word carries can change. *)
let repeat_load m proc ~vaddr ~max:budget =
  match (m.M.udma, m.M.preempt_hook, m.M.current) with
  | Some u, None, Some cur
    when cur == proc && budget > 0
         && (not (Udma_sim.Trace.active m.M.trace))
         && Udma.State_machine.load_is_probe (Udma.Udma_engine.state u)
         && is_proxy m vaddr ->
      let engine = m.M.engine in
      let cost = m.M.costs.Cost_model.uncached_ref in
      let k =
        if cost <= 0 then 0
        else
          Int.min budget
            ((Engine.next_event_time engine - Engine.now engine - 1) / cost)
      in
      if k > 0 && Mmu.rehit m.M.mmu vaddr k then begin
        Udma.Udma_engine.count_probes u k;
        Machine.charge_as m Engine.Profiler.User_ref (k * cost);
        k
      end
      else 0
  | _ -> 0

let user_cpu m proc =
  Initiator.
    {
      load =
        (fun ~vaddr ->
          Bus.load_word m.M.bus (user_access m proc Mmu.Read vaddr));
      store =
        (fun ~vaddr v ->
          Bus.store_word m.M.bus (user_access m proc Mmu.Write vaddr) v);
      repeat_load = (fun ~vaddr ~max -> repeat_load m proc ~vaddr ~max);
      compute =
        (fun cycles ->
          run_as m proc;
          Machine.charge_as m Engine.Profiler.User_ref cycles);
      now = (fun () -> Engine.now m.M.engine);
    }

let alloc_buffer m proc ~bytes =
  if bytes <= 0 then invalid_arg "Kernel.alloc_buffer: size must be positive";
  let page_size = Layout.page_size m.M.layout in
  let pages = (bytes + page_size - 1) / page_size in
  let vpn0 = proc.Proc.brk_vpn in
  for i = 0 to pages - 1 do
    ignore (Vm.map_new_page m proc ~vpn:(vpn0 + i) ())
  done;
  proc.Proc.brk_vpn <- vpn0 + pages;
  vpn0 * page_size

(* Kernel-internal resolution: bring the page in if needed. *)
let kernel_resolve m proc ~vaddr =
  let vpn = Layout.page_of_addr m.M.layout vaddr in
  match Page_table.find proc.Proc.page_table vpn with
  | Some pte when pte.Pte.present -> pte.Pte.ppage
  | Some _ -> Vm.page_in m proc ~vpn
  | None ->
      raise
        (Vm.Segfault
           { pid = proc.Proc.pid; vaddr; access = Mmu.Read;
             reason = "kernel access to unmapped user page" })

let write_user m proc ~vaddr data =
  let layout = m.M.layout in
  let page_size = Layout.page_size layout in
  let len = Bytes.length data in
  let rec go off =
    if off < len then begin
      let addr = vaddr + off in
      let room = page_size - Layout.offset_in_page layout addr in
      let piece = Int.min room (len - off) in
      let frame = kernel_resolve m proc ~vaddr:addr in
      let paddr =
        Phys_mem.frame_base m.M.mem frame + Layout.offset_in_page layout addr
      in
      Phys_mem.write_bytes m.M.mem ~addr:paddr (Bytes.sub data off piece);
      (* a kernel write dirties the page like any other write *)
      (match
         Page_table.find proc.Proc.page_table
           (Layout.page_of_addr layout addr)
       with
      | Some pte -> pte.Pte.dirty <- true
      | None -> ());
      go (off + piece)
    end
  in
  go 0

let read_user m proc ~vaddr ~len =
  let layout = m.M.layout in
  let page_size = Layout.page_size layout in
  let out = Bytes.make len '\000' in
  let rec go off =
    if off < len then begin
      let addr = vaddr + off in
      let room = page_size - Layout.offset_in_page layout addr in
      let piece = Int.min room (len - off) in
      let frame = kernel_resolve m proc ~vaddr:addr in
      let paddr =
        Phys_mem.frame_base m.M.mem frame + Layout.offset_in_page layout addr
      in
      Bytes.blit (Phys_mem.read_bytes m.M.mem ~addr:paddr ~len:piece) 0 out off
        piece;
      go (off + piece)
    end
  in
  go 0;
  out

let touch_dirty m proc ~vaddr =
  let cpu = user_cpu m proc in
  let aligned = vaddr land lnot 3 in
  let v = cpu.Initiator.load ~vaddr:aligned in
  cpu.Initiator.store ~vaddr:aligned v

let vdev_addr m ~index ~offset =
  Layout.dev_proxy_addr m.M.layout ~page:index ~offset
