module Engine = Udma_sim.Engine
module Trace = Udma_sim.Trace
module Metrics = Udma_obs.Metrics
module Profiler = Udma_obs.Profiler
module Layout = Udma_mmu.Layout
module Mmu = Udma_mmu.Mmu
module Phys_mem = Udma_memory.Phys_mem
module Frame_allocator = Udma_memory.Frame_allocator
module Backing_store = Udma_memory.Backing_store
module Bus = Udma_dma.Bus
module Dma_engine = Udma_dma.Dma_engine
module Udma_engine = Udma.Udma_engine

type i3_policy = Write_upgrade | Proxy_dirty_union

type invariant = [ `I1 | `I2 | `I3 | `I4 | `I5 | `N1 | `N2 | `F1 ]

let invariant_name = function
  | `I1 -> "I1"
  | `I2 -> "I2"
  | `I3 -> "I3"
  | `I4 -> "I4"
  | `I5 -> "I5"
  | `N1 -> "N1"
  | `N2 -> "N2"
  | `F1 -> "F1"

let pp_invariant ppf inv = Format.pp_print_string ppf (invariant_name inv)

type os_metrics = {
  vm_proxy_invalidations : Metrics.counter;
  vm_page_outs : Metrics.counter;
  vm_i4_skips : Metrics.counter;
  vm_evictions : Metrics.counter;
  vm_maps : Metrics.counter;
  vm_device_proxy_maps : Metrics.counter;
  vm_page_ins : Metrics.counter;
  vm_clean_deferred : Metrics.counter;
  vm_cleans : Metrics.counter;
  vm_proxy_faults : Metrics.counter;
  vm_dirty_upgrades : Metrics.counter;
  vm_faults : Metrics.counter;
  vm_fault_cycles : Metrics.sampler;
  vm_pins : Metrics.counter;
  sched_switches : Metrics.counter;
  syscall_dma : Metrics.counter;
  syscall_map_device_proxy : Metrics.counter;
}

type owner = { pid : int; vpn : int; pte : Udma_mmu.Pte.t }

let no_owner = { pid = -1; vpn = -1; pte = Udma_mmu.Pte.make ~ppage:(-1) () }

type t = {
  engine : Engine.t;
  layout : Layout.t;
  mem : Phys_mem.t;
  alloc : Frame_allocator.t;
  swap : Backing_store.t;
  bus : Bus.t;
  mmu : Mmu.t;
  dma : Dma_engine.t;
  udma : Udma_engine.t option;
  costs : Cost_model.t;
  i3_policy : i3_policy;
  metrics : Metrics.t;
  os : os_metrics;
  trace : Trace.t;
  mutable procs : Proc.t list;
  mutable runq : Proc.t list;
  mutable current : Proc.t option;
  mutable next_pid : int;
  mutable frame_owner : owner array;
  swap_slots : (int * int, Backing_store.slot) Hashtbl.t;
  pinned : (int, int) Hashtbl.t;
  mutable clock_hand : int;
  mutable preempt_hook : (t -> bool) option;
  mutable on_switch : (t -> unit) option;
}

type config = {
  page_size : int;
  mem_pages : int;
  virt_pages : int;
  dev_pages : int;
  reserved_frames : int;
  tlb_entries : int;
  udma_mode : Udma_engine.mode option;
  costs : Cost_model.t;
  i3_policy : i3_policy;
  bus_timing : Bus.timing;
  trace_enabled : bool;
  shared_engine : Engine.t option;
      (* multi-node systems run every machine on one engine *)
}

let default_config =
  {
    page_size = 4096;
    mem_pages = 512;
    virt_pages = 2048;
    dev_pages = 64;
    reserved_frames = 2;
    tlb_entries = 64;
    udma_mode = Some Udma_engine.Basic;
    costs = Cost_model.default;
    i3_policy = Write_upgrade;
    bus_timing = Bus.default_timing;
    trace_enabled = false;
    shared_engine = None;
  }

let create ?(config = default_config) () =
  (* the virtual user region may exceed installed memory (demand
     paging); the layout describes the larger of the two and physical
     addresses beyond installed memory simply never get mapped *)
  let virt_pages = Int.max config.virt_pages config.mem_pages in
  let layout =
    Layout.create ~page_size:config.page_size ~mem_pages:virt_pages
      ~dev_pages:config.dev_pages
  in
  let mem =
    Phys_mem.create ~frames:config.mem_pages ~page_size:config.page_size
  in
  let engine =
    match config.shared_engine with
    | Some e -> e
    | None -> Engine.create ~mhz:config.costs.Cost_model.mhz ()
  in
  let bus = Bus.create ~timing:config.bus_timing mem in
  let mmu = Mmu.create ~layout ~tlb_capacity:config.tlb_entries in
  let trace = Trace.create ~enabled:config.trace_enabled () in
  let metrics = Metrics.create () in
  let c = Metrics.counter metrics in
  let os =
    {
      vm_proxy_invalidations = c "vm.proxy_invalidations";
      vm_page_outs = c "vm.page_outs";
      vm_i4_skips = c "vm.i4_skips";
      vm_evictions = c "vm.evictions";
      vm_maps = c "vm.maps";
      vm_device_proxy_maps = c "vm.device_proxy_maps";
      vm_page_ins = c "vm.page_ins";
      vm_clean_deferred = c "vm.clean_deferred";
      vm_cleans = c "vm.cleans";
      vm_proxy_faults = c "vm.proxy_faults";
      vm_dirty_upgrades = c "vm.dirty_upgrades";
      vm_faults = c "vm.faults";
      vm_fault_cycles = Metrics.sampler metrics "vm.fault_cycles";
      vm_pins = c "vm.pins";
      sched_switches = c "sched.switches";
      syscall_dma = c "syscall.dma";
      syscall_map_device_proxy = c "syscall.map_device_proxy";
    }
  in
  let dma = Dma_engine.create ~engine ~bus ~trace ~metrics () in
  let udma =
    match config.udma_mode with
    | None -> None
    | Some mode ->
        Some
          (Udma_engine.create ~engine ~layout ~bus ~dma ~mode ~trace ~metrics ())
  in
  {
    engine;
    layout;
    mem;
    alloc =
      Frame_allocator.create ~frames:config.mem_pages
        ~reserved:config.reserved_frames;
    swap = Backing_store.create ~page_size:config.page_size;
    bus;
    mmu;
    dma;
    udma;
    costs = config.costs;
    i3_policy = config.i3_policy;
    metrics;
    os;
    trace;
    procs = [];
    runq = [];
    current = None;
    next_pid = 1;
    frame_owner = [||];
    swap_slots = Hashtbl.create 64;
    pinned = Hashtbl.create 16;
    clock_hand = config.reserved_frames;
    preempt_hook = None;
    on_switch = None;
  }

(* Plain recursion, so a lookup allocates no closure: the NI's deposit
   runs one per received packet. *)
let rec proc_with pid = function
  | [] -> None
  | p :: rest -> if p.Proc.pid = pid then Some p else proc_with pid rest

let find_proc t ~pid = proc_with pid t.procs

let owner t frame =
  if frame >= 0 && frame < Array.length t.frame_owner then t.frame_owner.(frame)
  else no_owner

let set_owner t frame o =
  let n = Array.length t.frame_owner in
  if frame >= n then begin
    let grown = Array.make (Int.max (frame + 1) (2 * n)) no_owner in
    Array.blit t.frame_owner 0 grown 0 n;
    t.frame_owner <- grown
  end;
  t.frame_owner.(frame) <- o

let charge_as t cat cycles =
  Engine.advance_in t.engine cat cycles;
  match t.current with
  | Some p -> p.Proc.cpu_cycles <- p.Proc.cpu_cycles + cycles
  | None -> ()

let charge t cycles =
  (* Uncategorized machine work is kernel work; work charged inside a
     category keeps its attribution. *)
  let cat =
    match Profiler.current (Engine.profiler t.engine) with
    | Profiler.Idle -> Profiler.Kernel
    | cat -> cat
  in
  charge_as t cat cycles

let pages_per_span t = Layout.span t.layout / Layout.page_size t.layout

let proxy_vpn t vpn = vpn + pages_per_span t

let proxy_ppage t frame = frame + pages_per_span t

let frame_is_pinned t frame =
  match Hashtbl.find_opt t.pinned frame with
  | Some n -> n > 0
  | None -> false
