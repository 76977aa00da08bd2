(** One simulated node: hardware plus kernel-visible state.

    [Machine.t] is the record every OS module operates on. It is built
    by {!create}, which assembles physical memory, the bus, the MMU,
    the DMA engine and (optionally) the UDMA engine over one simulation
    engine. *)

(** How invariant I3 (content consistency, paper §6) is maintained. *)
type i3_policy =
  | Write_upgrade
      (** the paper's primary method: a proxy page is writable only
          while its real page is dirty; the first proxy write faults
          and upgrades; cleaning write-protects the proxy page *)
  | Proxy_dirty_union
      (** the paper's alternative: proxy pages carry their own dirty
          bits and the paging code treats a page as dirty when either
          it or its proxy page is dirty — "conceptually simpler, but
          requires more changes to the paging code" *)

(** The invariants an oracle reports: the paper's four OS invariants
    (§6) [`I1]–[`I4]; [`I5], cross-tenant isolation: no transfer is
    authorized against a destination page its tenant does not own, and
    no datapath decode state (NIPT entry, IOTLB line, capability)
    survives the teardown of the grant backing it; two network
    invariants the router's flow-control model maintains: [`N1],
    credit conservation ([held + in_flight + free = capacity] for
    every (link, virtual channel) pool at every cycle), and [`N2],
    arbitration fairness (a ready virtual channel is granted the
    physical link within [vc_count] arbitration rounds); and [`F1],
    flit conservation in the flit-level crossing: every flit ever
    injected is delivered or sits in some injection/input FIFO, and
    every finite input FIFO satisfies [credits + occupancy = capacity]
    with occupancy within capacity. *)
type invariant = [ `I1 | `I2 | `I3 | `I4 | `I5 | `N1 | `N2 | `F1 ]

val invariant_name : invariant -> string

val pp_invariant : Format.formatter -> invariant -> unit

(** The OS's handles on the machine registry, one per [vm.*],
    [sched.*] and [syscall.*] name (each field is the name with [_]
    for [.]); a handle never bumped leaves the registry untouched. *)
type os_metrics = {
  vm_proxy_invalidations : Udma_obs.Metrics.counter;
  vm_page_outs : Udma_obs.Metrics.counter;
  vm_i4_skips : Udma_obs.Metrics.counter;
  vm_evictions : Udma_obs.Metrics.counter;
  vm_maps : Udma_obs.Metrics.counter;
  vm_device_proxy_maps : Udma_obs.Metrics.counter;
  vm_page_ins : Udma_obs.Metrics.counter;
  vm_clean_deferred : Udma_obs.Metrics.counter;
  vm_cleans : Udma_obs.Metrics.counter;
  vm_proxy_faults : Udma_obs.Metrics.counter;
  vm_dirty_upgrades : Udma_obs.Metrics.counter;
  vm_faults : Udma_obs.Metrics.counter;
  vm_fault_cycles : Udma_obs.Metrics.sampler;
  vm_pins : Udma_obs.Metrics.counter;
  sched_switches : Udma_obs.Metrics.counter;
  syscall_dma : Udma_obs.Metrics.counter;
  syscall_map_device_proxy : Udma_obs.Metrics.counter;
}

type owner = { pid : int; vpn : int; pte : Udma_mmu.Pte.t }
(** The user page a memory frame backs: process [pid]'s virtual page
    [vpn], whose page-table entry is [pte] (the entry itself, so
    reading or dirtying the page needs no lookup). *)

val no_owner : owner
(** The entry of a frame that backs no user page (compare with [==]). *)

type t = {
  engine : Udma_sim.Engine.t;
  layout : Udma_mmu.Layout.t;
  mem : Udma_memory.Phys_mem.t;
  alloc : Udma_memory.Frame_allocator.t;
  swap : Udma_memory.Backing_store.t;
  bus : Udma_dma.Bus.t;
  mmu : Udma_mmu.Mmu.t;
  dma : Udma_dma.Dma_engine.t;
  udma : Udma.Udma_engine.t option;
      (** [None] builds a traditional-DMA-only machine (baselines) *)
  costs : Cost_model.t;
  i3_policy : i3_policy;
  metrics : Udma_obs.Metrics.t;
      (** machine-wide registry: [vm.*], [sched.*], [syscall.*] plus
          the [udma.*] / [dma.*] / [ni.*] counters, the hardware's only
          copy of its counts *)
  os : os_metrics;  (** the OS's handles on [metrics] *)
  trace : Udma_sim.Trace.t;
  mutable procs : Proc.t list;
  mutable runq : Proc.t list;        (** round-robin ready queue *)
  mutable current : Proc.t option;
  mutable next_pid : int;
  mutable frame_owner : owner array;
      (** frame → the user page it backs, {!no_owner} for any other
          frame, grown on demand to the highest frame that has backed
          a page; set and cleared by [Vm] ({!set_owner}) wherever a
          frame starts or stops backing a page, read ({!owner}) by
          replacement, the NI's deposit and the oracles *)
  swap_slots : (int * int, Udma_memory.Backing_store.slot) Hashtbl.t;
      (** (pid, vpn) → swap slot for paged-out pages *)
  pinned : (int, int) Hashtbl.t;     (** frame → pin count *)
  mutable clock_hand : int;          (** clock-replacement cursor *)
  mutable preempt_hook : (t -> bool) option;
      (** consulted before every user reference; returning [true]
          forces a context switch (failure injection for I1 tests) *)
  mutable on_switch : (t -> unit) option;
      (** observer called at the end of every real context switch,
          after the I1 Inval; the chaos harness installs its I1 oracle
          here *)
}

type config = {
  page_size : int;
  mem_pages : int;       (** physical frames *)
  virt_pages : int;
      (** user virtual pages (≥ [mem_pages]; excess is demand-paged) *)
  dev_pages : int;       (** device-proxy pages *)
  reserved_frames : int; (** frames the kernel keeps (≥ 1) *)
  tlb_entries : int;
  udma_mode : Udma.Udma_engine.mode option;
      (** [None] = no UDMA hardware; [Some mode] installs the engine *)
  costs : Cost_model.t;
  i3_policy : i3_policy;
  bus_timing : Udma_dma.Bus.timing;
  trace_enabled : bool;
  shared_engine : Udma_sim.Engine.t option;
      (** multi-node systems pass one engine to every machine so that
          all nodes share simulated time *)
}

val default_config : config
(** 4 KB pages, 512 frames, 2048 virtual pages, 64 device-proxy pages,
    2 reserved frames, 64 TLB entries, basic UDMA, default costs and
    timing, no trace. *)

val create : ?config:config -> unit -> t

val find_proc : t -> pid:int -> Proc.t option

val owner : t -> int -> owner
(** [owner m frame] is [frame]'s entry of [frame_owner], {!no_owner}
    for a frame the array does not reach. *)

val set_owner : t -> int -> owner -> unit
(** [set_owner m frame o] records [o] as [frame]'s entry, growing the
    array to reach [frame]. *)

val charge : t -> int -> unit
(** [charge m cycles] advances the simulation clock by [cycles] and
    attributes them to the current process. Cycles are charged to the
    profiler's current category, or to [Kernel] when no category is
    set (uncategorized machine work is kernel work by definition). *)

val charge_as : t -> Udma_obs.Profiler.category -> int -> unit
(** [charge_as m cat cycles] is {!charge} with the cycles attributed to
    [cat]; it allocates nothing, so every user reference uses it. *)

val proxy_vpn : t -> int -> int
(** [proxy_vpn m vpn] is the virtual page number of [PROXY] of virtual
    page [vpn]. *)

val proxy_ppage : t -> int -> int
(** [proxy_ppage m frame] is the physical page number of [PROXY] of
    physical frame [frame]. *)

val frame_is_pinned : t -> int -> bool
