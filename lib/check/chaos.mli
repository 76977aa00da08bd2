(** Seeded chaos explorer for the UDMA/OS invariants.

    One {e seed} deterministically derives a whole experiment: a
    system configuration and a schedule of randomized actions
    interleaved with injected faults. A {!scenario} says what the
    system is: its setup and action types, generator, builder, oracle
    check, final drain, printers and trace filter. Two scenarios
    exist: {!node}, one machine under user-level DMA misuse and
    paging pressure, and {!mesh}, a SHRIMP multi-node system under
    network traffic. One driver runs both.

    After every action the scenario's oracles are evaluated against
    the system, and the I1 oracle runs inside every context switch.
    Any violation stops the run and is reported with the seed, the
    executed schedule prefix and the invariant broken. Because
    everything derives from the seed, a failure replays exactly;
    {!shrink} then greedily deletes actions to a minimal
    still-failing schedule and {!report} formats the whole repro
    recipe (with a traced replay, where the scenario records one) for
    humans. *)

(** {1 The harness} *)

type ('s, 'a) plan = { setup : 's; actions : 'a list }

type ('s, 'a) failure = {
  plan : ('s, 'a) plan;  (** full generated plan *)
  step : int;
      (** index of the failing action; the action count when the final
          drain fails *)
  violation : Oracle.violation;
}

type ('s, 'a) outcome = Pass | Fail of ('s, 'a) failure

(** One built system, as the driver sees it. *)
type 'a system = {
  apply : 'a -> unit;
      (** may raise {!Oracle.Violation} (the I1 check at a context
          switch) or an exception the workload is expected to provoke
          (a segfault, out of memory, a kernel refusal), which the
          driver absorbs *)
  check : unit -> Oracle.violation option;  (** the post-action oracles *)
  drain : unit -> unit;  (** run the system dry after the last action *)
  events : unit -> Udma_obs.Event.t list;
      (** the invariant-relevant part of the trace ([[]] untraced) *)
}

(** A system under test, with setup type ['s] and action type ['a]. *)
type ('s, 'a) scenario = {
  prefix : string;
      (** ["mesh "] for the mesh scenario: prefixes "chaos failure",
          "chaos sweep" and "seed" in printed lines *)
  gen : int -> 's * (unit -> 'a);
      (** a seed's setup, and the generator of its actions *)
  seed_of : 's -> int;
  build : trace:bool -> 's -> 'a system;
      (** a fresh system; [trace] records the trace that {!report}
          prints the tail of *)
  pp_setup : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
}

val plan_of_seed : ('s, 'a) scenario -> ?steps:int -> int -> ('s, 'a) plan
(** [plan_of_seed sc seed] derives the full experiment ([steps] actions,
    default 40) from one integer. *)

val run_plan : ('s, 'a) scenario -> ('s, 'a) plan -> ('s, 'a) outcome
(** Execute a plan from scratch, untraced: the scenario's check after
    every action, then its final drain and check. Deterministic: the
    same plan always produces the same outcome. *)

val sweep :
  ('s, 'a) scenario -> ?steps:int -> ?start:int -> seeds:int -> unit ->
  ('s, 'a) failure list
(** Run seeds [start .. start+seeds-1] (default [start = 0]); collect
    every failure. *)

val first_failure : ('s, 'a) scenario -> seeds:int -> ('s, 'a) failure option
(** Like {!sweep} from seed 0 with default steps, but stops at the
    first failing seed. *)

val shrink : ('s, 'a) scenario -> ('s, 'a) failure -> ('s, 'a) failure
(** Truncate the schedule to the failing prefix, then greedily delete
    earlier actions while the plan still fails with the {e same}
    invariant. The result's plan is the minimized schedule. *)

val report : ('s, 'a) scenario -> ('s, 'a) failure -> string
(** Human-readable repro recipe: seed, violated invariant, setup, the
    (ideally shrunk) schedule, and the tail of a traced replay if the
    scenario records one. *)

(** {1 Single-machine scenario}

    A machine configuration (engine mode, installed memory, I3
    policy), a small multi-process population with mapped device
    proxies, and a schedule of overlapping user transfers, raw
    STORE/LOAD misuse (wrong-space pairs, unaligned references,
    half-finished initiations), hardware-queue pressure, system-queue
    enqueues, traditional disk DMA, paging pressure and forced
    evictions — interleaved with injected faults (random preemption
    between any two user references, device [validate] failures,
    swap-outs mid-transfer). The oracles are I2–I4 after every action
    and I1 at every context switch; the replay trace keeps the UDMA,
    VM and scheduler events. *)

type dir = Out  (** memory → device *) | In  (** device → memory *)

type action =
  | Xfer of { proc : int; page : int; dev_page : int; nbytes : int;
              dir : dir; queued : bool }
      (** complete user-library transfer (drains before returning) *)
  | Raw_pair of { proc : int; page : int; dev_page : int; nbytes : int;
                  dir : dir }
      (** raw STORE+LOAD pair; the transfer is left in flight *)
  | Half_pair of { proc : int; page : int; dev_page : int; nbytes : int;
                   dir : dir }
      (** STORE only: a partial initiation for I1 to clean up *)
  | Probe of { proc : int; dev_page : int }  (** status LOAD *)
  | Wrong_space of { proc : int; page : int; nbytes : int }
      (** memory-to-memory pair: must be refused as BadLoad *)
  | Unaligned of { proc : int; page : int }  (** unaligned proxy STORE *)
  | Inval_store of { proc : int }  (** deliberate negative-count STORE *)
  | Burst of { proc : int; page : int; dev_page : int; count : int;
               nbytes : int }
      (** back-to-back raw pairs: queue-full pressure in [Queued] mode *)
  | Sys_enqueue of { proc : int; page : int; dev_page : int; nbytes : int }
      (** kernel system-queue transfer from a resident user frame *)
  | Touch of { proc : int; page : int; write : bool }
  | Clean of { proc : int; page : int }  (** pageout-daemon clean *)
  | Evict  (** forced replacement (swap-out), possibly mid-transfer *)
  | Grow of { proc : int }  (** map another page: memory pressure *)
  | Flaky of bool  (** toggle device [validate] failures *)
  | Preempt_rate of { pct : int }
      (** preemption probability per user memory reference *)
  | Run_cycles of { cycles : int }  (** advance simulated time only *)
  | Drain  (** run the event queue dry *)
  | Disk_dma of { proc : int; page : int; nbytes : int; dir : dir;
                  bounce : bool }
      (** traditional syscall DMA to the disk, pinned or bounce-buffer *)

type setup = {
  seed : int;
  mem_pages : int;            (** installed physical frames *)
  depth : int option;         (** [None] = basic engine, else queued *)
  write_upgrade : bool;       (** I3 policy *)
  nprocs : int;
  pages_per_proc : int;
}

val node : (setup, action) scenario

(** {1 Mesh traffic scenario}

    The single-node schedules above never exercise the network. The
    mesh scenario derives a whole SHRIMP {!Udma_shrimp.System} from
    the seed — a 2x2, 3x2 or 3x3 mesh with all-pairs messaging
    channels, the router's link-contention model and minimal-adaptive
    routing each usually enabled — and interleaves user-level sends
    and hardware-level injection bursts with the same paging pressure,
    forced evictions and random preemption as the single-node plans,
    plus link faults: killing, slowing or healing a directed mesh link
    under traffic (the adaptive router routes around a dead link; the
    dimension-order router crosses it on the slow recovery path).
    Setups usually enable several virtual channels and finite
    deposit-FIFO credits, and the schedule can squeeze or restore the
    credit pools under load ([M_credit_squeeze]).

    Each node also carries shadow IOMMU and capability backends
    mirroring its NI's proxy grants, and the schedule attacks all
    three protection designs at once: a malicious tenant probes other
    tenants' import slots and unconfigured indices
    ([M_rogue_tenant]), slots are torn down under traffic
    ([M_revoke]) and legitimate owners initiate through every backend
    ([M_backend_send]) — every rogue probe must fault, never corrupt.
    Every node also runs an idle second process, so preemption really
    switches, and the schedule leaves half-initiated pairs
    ([M_half_pair]) for the switch and the replacement code to meet.

    After every action the I2–I4 oracles run on {e every} node's
    machine, each machine checks I1 at its context switches (the
    violation detail names the failing node), the I5 isolation oracle
    runs on every node's three backends, and the shared router is
    checked against the network invariants N1 (credit conservation),
    N2 (arbitration fairness) and F1 (flit conservation). Failures
    shrink like the single-machine ones. *)

type mesh_action =
  | M_send of { src : int; dst : int; nbytes : int; pipelined : bool }
      (** user-level [send_nowait] on the (src,dst) channel *)
  | M_shaped_send of { src : int; dst : int }
      (** fire-and-forget strided initiation on the (src,dst) channel
          whose tail elements stride past the source page: legal
          hardware clamps each element to its own page, so only the
          in-page head transfers; hardware that skipped the clamp
          would reference frames the proxy never named, which the I4
          oracle flags while the transfer is in flight *)
  | M_half_pair of { node : int; page : int; nbytes : int }
      (** the STORE half of a device-to-memory pair: the node's engine
          latches buffer [page] as a memory DESTINATION. The next
          context switch must invalidate it (I1) and no replacement
          may take its frame (I4) *)
  | M_burst of { src : int; dst : int; count : int; nbytes : int }
      (** hardware-level {!Udma_shrimp.Messaging.inject} burst *)
  | M_touch of { node : int; page : int; write : bool }
  | M_clean of { node : int; page : int }
  | M_evict of { node : int }
      (** forced-replacement storm (several reclaims) on one node *)
  | M_preempt of { node : int; pct : int }
  | M_link_fault of
      { from_node : int; to_node : int; fault : Udma_shrimp.Router.fault }
      (** kill ([Link_dead]), slow ([Link_slow]) or heal ([Link_ok])
          one directed mesh link *)
  | M_credit_squeeze of { credits : int option }
      (** {!Udma_shrimp.Router.set_rx_credits}: shrink the deposit
          FIFOs under load, or restore the setup's capacity *)
  | M_rogue_tenant of { node : int; page : int }
      (** malicious tenant: {!Udma_protect.Backend.authorize} with a
          foreign tenant id against [page], slot 0 and an unmapped
          index, on the node's proxy, IOMMU and capability backends *)
  | M_revoke of { node : int; page : int }
      (** tear down one import slot on all three backends; the
          datapath entry must not survive (I5) *)
  | M_backend_send of { node : int; page : int }
      (** the slot owner's initiation through all three backends
          (IOTLB fill / capability check exercise) *)
  | M_run of { cycles : int }
  | M_drain

type mesh_setup = {
  mesh_seed : int;
  mesh_nodes : int;   (** 4, 6 or 9 (complete mesh rows) *)
  contention : bool;  (** router per-link FIFO model *)
  adaptive : bool;    (** minimal-adaptive routing (else dimension-order) *)
  mesh_pages : int;   (** extra user buffers per node *)
  mesh_vcs : int;     (** virtual channels per link, 1..4 *)
  mesh_credits : int option;  (** deposit slots per (link, VC), or [None] *)
  mesh_crossing : Udma_shrimp.Router.crossing;
      (** wire model; flit seeds (1 of 3) force dimension-order and
          finite credits at build time and cap message sizes *)
  mesh_flit_words : int;      (** flit size for [`Flit] seeds *)
}

val mesh_router_config : mesh_setup -> Udma_shrimp.Router.config
(** The router a mesh seed runs: its draws, with contention on,
    dimension-order routing and finite credits forced for flit seeds.
    The scenario builds with it and its setup header prints it. *)

val mesh : (mesh_setup, mesh_action) scenario
(** Untraced: {!report} has no trace tail. *)
