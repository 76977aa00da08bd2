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

(** The paper's four OS invariants (§6), plus two network invariants
    the router's flow-control model must maintain, named so the
    fault-injection harness can disable the action maintaining each
    one and so oracles can report which invariant a state violates.

    [`N1] is credit conservation: for every (link, virtual channel)
    pool, [held + in_flight + free = capacity] at every cycle.
    [`N2] is arbitration fairness: a ready virtual channel is granted
    the physical link within [vc_count] arbitration rounds. Passing
    either to [create]'s [skip_invariant] is forwarded by
    [Udma_shrimp.System] to the router as the matching deliberate
    bug (credit leak / stuck arbiter); the machine itself has no
    [`N1]/[`N2] maintenance path.

    [`F1] is flit conservation, the oracle of the flit-level crossing
    model: every flit ever injected is either delivered or sitting in
    some injection/input FIFO, and every finite input FIFO satisfies
    [credits + occupancy = capacity] (with occupancy never exceeding
    capacity). [`F2] is its second planted bug: the per-link arbiter
    grants two flits in one flit-cycle against a single credit, which
    the same conservation oracle catches as a credit/occupancy
    mismatch. [Udma_shrimp.System] forwards [`F1]/[`F2] to the router
    as the flit-leak / double-grant mutations; both are reported by
    oracles as [`F1] violations and only fire when the router runs
    with [crossing = `Flit].

    [`I5] is cross-tenant isolation: no transfer is authorized against
    a destination page its tenant does not own, and no datapath decode
    state (NIPT entry, IOTLB line, capability) survives the teardown of
    the grant backing it. [`P1] (owner check skipped on one page) and
    [`P2] (stale datapath entry survives teardown) are the two
    deliberate protection bugs: [Udma_shrimp.System] forwards either
    to the node's protection backend, and the [`I5] oracle must catch
    both. Like [`N1]/[`N2], the machine itself has no maintenance path
    for them.

    [`D1] is the DMA-frontend clamp bug: the UDMA engine skips the
    per-element page clamp, so a shaped (strided/scatter-gather) or
    oversized flat initiation reaches physical frames its proxy
    references never authorized. The mesh chaos harness must catch it
    through I1/I4 (a referenced frame no longer backs — or never
    backed — a user page). *)
type invariant =
  [ `I1 | `I2 | `I3 | `I4 | `I5 | `N1 | `N2 | `F1 | `F2 | `P1 | `P2 | `D1 ]

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
  mutable skip_invariant : invariant option;
      (** debug hook: the kernel/VM action maintaining this invariant
          is skipped — a deliberate OS bug used to prove the chaos
          oracles actually detect each class of violation *)
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

val create : ?config:config -> ?skip_invariant:invariant -> unit -> t
(** [skip_invariant] installs the deliberate-bug debug hook: the
    kernel action maintaining that invariant is omitted (see
    {!skips}). Intended only for oracle-soundness tests. *)

val skips : t -> invariant -> bool
(** [skips m inv] is [true] when the kernel was built with
    [~skip_invariant:inv]; the maintenance paths consult this. *)

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
