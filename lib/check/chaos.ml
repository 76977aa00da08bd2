module Engine = Udma_sim.Engine
module Rng = Udma_sim.Rng
module Trace = Udma_sim.Trace
module Layout = Udma_mmu.Layout
module Device = Udma_dma.Device
module Udma_engine = Udma.Udma_engine
module Initiator = Udma.Initiator
module M = Udma_os.Machine
module Proc = Udma_os.Proc
module Kernel = Udma_os.Kernel
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module Vm = Udma_os.Vm
module Frame_allocator = Udma_memory.Frame_allocator
module Disk = Udma_devices.Disk

(* ---------- the harness: one driver, one scenario per system ---------- *)

type ('s, 'a) plan = { setup : 's; actions : 'a list }

type ('s, 'a) failure = {
  plan : ('s, 'a) plan;
  step : int;
  violation : Oracle.violation;
}

type ('s, 'a) outcome = Pass | Fail of ('s, 'a) failure

type 'a system = {
  apply : 'a -> unit;
  check : unit -> Oracle.violation option;
  drain : unit -> unit;
  events : unit -> Trace.Event.t list;
}

type ('s, 'a) scenario = {
  prefix : string;
  gen : int -> 's * (unit -> 'a);
  seed_of : 's -> int;
  build : ?skip_invariant:M.invariant -> trace:bool -> 's -> 'a system;
  pp_setup : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
}

let plan_of_seed sc ?(steps = 40) seed =
  let setup, next = sc.gen seed in
  { setup; actions = List.init steps (fun _ -> next ()) }

(* Exceptions the chaos workload is expected to provoke: illegal
   accesses, allocation failure under pressure, unaligned references,
   kernel refusals (Failure). Oracle.Violation is never one of them. *)
let benign_exn = function
  | Vm.Segfault _ | Vm.Out_of_memory | Invalid_argument _ | Failure _ -> true
  | _ -> false

(* Run [plan] from a fresh system: the oracles after every action, then
   a final drain (leftover transfers must complete cleanly). Returns the
   first (step, violation), if any, and the system for its trace. *)
let execute sc ?skip_invariant ?(trace = false) plan =
  let sys = sc.build ?skip_invariant ~trace plan.setup in
  let guard f = try f () with Oracle.Violation v -> Some v in
  let rec go i = function
    | [] ->
        guard (fun () -> sys.drain (); sys.check ())
        |> Option.map (fun v -> (i, v))
    | a :: rest -> (
        match
          guard (fun () ->
              (try sys.apply a with e when benign_exn e -> ());
              sys.check ())
        with
        | Some v -> Some (i, v)
        | None -> go (i + 1) rest)
  in
  (go 0 plan.actions, sys)

let run_plan sc ?skip_invariant ?trace plan =
  match fst (execute sc ?skip_invariant ?trace plan) with
  | None -> Pass
  | Some (step, violation) -> Fail { plan; step; violation }

let run_seed sc ?skip_invariant ?steps seed =
  run_plan sc ?skip_invariant (plan_of_seed sc ?steps seed)

let sweep sc ?skip_invariant ?steps ?(start = 0) ~seeds () =
  List.filter_map
    (fun seed ->
      match run_seed sc ?skip_invariant ?steps seed with
      | Pass -> None
      | Fail f -> Some f)
    (List.init seeds (fun i -> start + i))

let first_failure sc ?skip_invariant ?steps ?(start = 0) ~seeds () =
  let rec go seed =
    if seed >= start + seeds then None
    else
      match run_seed sc ?skip_invariant ?steps seed with
      | Pass -> go (seed + 1)
      | Fail f -> Some f
  in
  go start

(* ---------- shrinking ---------- *)

let prefix n l = List.filteri (fun i _ -> i < n) l

(* A failure's plan cut to its failing prefix: a deterministic replay. *)
let failing_prefix f =
  let actions = prefix (f.step + 1) f.plan.actions in
  { f with plan = { f.plan with actions } }

let shrink sc ?skip_invariant f =
  let inv = f.violation.Oracle.invariant in
  (* greedy deletion of each action before the failing one (every
     action, when the final drain fails); on success keep only the
     (possibly shorter) failing prefix of the candidate and rescan from
     there *)
  let rec del i best =
    if i >= best.step then best
    else
      let actions = List.filteri (fun j _ -> j <> i) best.plan.actions in
      match run_plan sc ?skip_invariant { best.plan with actions } with
      | Fail g when g.violation.Oracle.invariant = inv ->
          del i (failing_prefix g)
      | Pass | Fail _ -> del (i + 1) best
  in
  del 0 (failing_prefix f)

(* ---------- replay + report ---------- *)

let replay_trace sc ?skip_invariant plan =
  (snd (execute sc ?skip_invariant ~trace:true plan)).events ()

let last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let report sc ?skip_invariant f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%schaos failure: seed %d, %d-step schedule@." sc.prefix
    (sc.seed_of f.plan.setup)
    (List.length f.plan.actions);
  Format.fprintf ppf "  %a@." Oracle.pp_violation f.violation;
  Format.fprintf ppf "  setup: %a@." sc.pp_setup f.plan.setup;
  Format.fprintf ppf "  schedule (deterministic replay):@.";
  List.iteri
    (fun i a ->
      Format.fprintf ppf "    %2d. %a%s@." i sc.pp_action a
        (if i = f.step then "   <- violation detected here" else ""))
    f.plan.actions;
  if f.step = List.length f.plan.actions then
    Format.fprintf ppf "        final drain   <- violation detected here@.";
  let tail = last 12 (replay_trace sc ?skip_invariant f.plan) in
  if tail <> [] then begin
    Format.fprintf ppf "  trace tail of the replay:@.";
    List.iter
      (fun ev ->
        Format.fprintf ppf "    %8d  %s@." ev.Trace.Event.time
          (Trace.Event.render ev))
      tail
  end;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* ---------- single-machine scenario ---------- *)

type dir = Out | In

type action =
  | Xfer of { proc : int; page : int; dev_page : int; nbytes : int;
              dir : dir; queued : bool }
  | Raw_pair of { proc : int; page : int; dev_page : int; nbytes : int;
                  dir : dir }
  | Half_pair of { proc : int; page : int; dev_page : int; nbytes : int;
                   dir : dir }
  | Probe of { proc : int; dev_page : int }
  | Wrong_space of { proc : int; page : int; nbytes : int }
  | Unaligned of { proc : int; page : int }
  | Inval_store of { proc : int }
  | Burst of { proc : int; page : int; dev_page : int; count : int;
               nbytes : int }
  | Sys_enqueue of { proc : int; page : int; dev_page : int; nbytes : int }
  | Touch of { proc : int; page : int; write : bool }
  | Clean of { proc : int; page : int }
  | Evict
  | Grow of { proc : int }
  | Flaky of bool
  | Preempt_rate of { pct : int }
  | Run_cycles of { cycles : int }
  | Drain
  | Disk_dma of { proc : int; page : int; nbytes : int; dir : dir;
                  bounce : bool }

type setup = {
  seed : int;
  mem_pages : int;
  depth : int option;
  write_upgrade : bool;
  nprocs : int;
  pages_per_proc : int;
}

(* ---------- pretty-printing ---------- *)

let pp_dir ppf = function
  | Out -> Format.pp_print_string ppf "out"
  | In -> Format.pp_print_string ppf "in"

let pp_action ppf = function
  | Xfer x ->
      Format.fprintf ppf "xfer%s proc=%d page=%d dev=%d nbytes=%d %a"
        (if x.queued then "-queued" else "") x.proc x.page x.dev_page
        x.nbytes pp_dir x.dir
  | Raw_pair x ->
      Format.fprintf ppf "raw-pair proc=%d page=%d dev=%d nbytes=%d %a"
        x.proc x.page x.dev_page x.nbytes pp_dir x.dir
  | Half_pair x ->
      Format.fprintf ppf "half-pair proc=%d page=%d dev=%d nbytes=%d %a"
        x.proc x.page x.dev_page x.nbytes pp_dir x.dir
  | Probe x -> Format.fprintf ppf "probe proc=%d dev=%d" x.proc x.dev_page
  | Wrong_space x ->
      Format.fprintf ppf "wrong-space proc=%d page=%d nbytes=%d" x.proc
        x.page x.nbytes
  | Unaligned x -> Format.fprintf ppf "unaligned proc=%d page=%d" x.proc x.page
  | Inval_store x -> Format.fprintf ppf "inval-store proc=%d" x.proc
  | Burst x ->
      Format.fprintf ppf "burst proc=%d page=%d dev=%d count=%d nbytes=%d"
        x.proc x.page x.dev_page x.count x.nbytes
  | Sys_enqueue x ->
      Format.fprintf ppf "sys-enqueue proc=%d page=%d dev=%d nbytes=%d"
        x.proc x.page x.dev_page x.nbytes
  | Touch x ->
      Format.fprintf ppf "touch-%s proc=%d page=%d"
        (if x.write then "write" else "read") x.proc x.page
  | Clean x -> Format.fprintf ppf "clean proc=%d page=%d" x.proc x.page
  | Evict -> Format.pp_print_string ppf "evict"
  | Grow x -> Format.fprintf ppf "grow proc=%d" x.proc
  | Flaky b -> Format.fprintf ppf "flaky-device %b" b
  | Preempt_rate x -> Format.fprintf ppf "preempt-rate %d%%" x.pct
  | Run_cycles x -> Format.fprintf ppf "run %d cycles" x.cycles
  | Drain -> Format.pp_print_string ppf "drain"
  | Disk_dma x ->
      Format.fprintf ppf "disk-dma proc=%d page=%d nbytes=%d %a %s" x.proc
        x.page x.nbytes pp_dir x.dir
        (if x.bounce then "bounce" else "pinned")

let pp_setup ppf s =
  Format.fprintf ppf
    "seed=%d mem_pages=%d mode=%s i3=%s nprocs=%d pages/proc=%d" s.seed
    s.mem_pages
    (match s.depth with
    | None -> "basic"
    | Some d -> Printf.sprintf "queued(depth=%d)" d)
    (if s.write_upgrade then "write-upgrade" else "proxy-dirty-union")
    s.nprocs s.pages_per_proc

(* ---------- plan generation ---------- *)

let gen_nbytes rng =
  match Rng.int rng 5 with
  | 0 -> 4 * (1 + Rng.int rng 16)
  | 1 | 2 -> 4 * (1 + Rng.int rng 256)
  | 3 -> 4 * (1 + Rng.int rng 1024)
  | _ -> 4096 + 4 * (1 + Rng.int rng 1024)

let gen_action rng =
  let proc () = Rng.int rng 8 in
  let page () = Rng.int rng 16 in
  let dev () = Rng.int rng 8 in
  let dir () = if Rng.bool rng then Out else In in
  match Rng.int rng 100 with
  | n when n < 14 ->
      Xfer { proc = proc (); page = page (); dev_page = dev ();
             nbytes = gen_nbytes rng; dir = dir (); queued = Rng.bool rng }
  | n when n < 26 ->
      Raw_pair { proc = proc (); page = page (); dev_page = dev ();
                 nbytes = 4 * (1 + Rng.int rng 1024); dir = dir () }
  | n when n < 34 ->
      Half_pair { proc = proc (); page = page (); dev_page = dev ();
                  nbytes = 4 * (1 + Rng.int rng 1024); dir = dir () }
  | n when n < 38 -> Probe { proc = proc (); dev_page = dev () }
  | n when n < 41 ->
      Wrong_space { proc = proc (); page = page ();
                    nbytes = 4 * (1 + Rng.int rng 64) }
  | n when n < 43 -> Unaligned { proc = proc (); page = page () }
  | n when n < 45 -> Inval_store { proc = proc () }
  | n when n < 52 ->
      Burst { proc = proc (); page = page (); dev_page = dev ();
              count = 2 + Rng.int rng 6; nbytes = 4 * (1 + Rng.int rng 512) }
  | n when n < 57 ->
      Sys_enqueue { proc = proc (); page = page (); dev_page = dev ();
                    nbytes = 4 * (1 + Rng.int rng 512) }
  | n when n < 67 ->
      Touch { proc = proc (); page = page (); write = Rng.bool rng }
  | n when n < 71 -> Clean { proc = proc (); page = page () }
  | n when n < 76 -> Evict
  | n when n < 80 -> Grow { proc = proc () }
  | n when n < 82 -> Flaky (Rng.bool rng)
  | n when n < 86 -> Preempt_rate { pct = 5 + Rng.int rng 36 }
  | n when n < 92 -> Run_cycles { cycles = 100 + Rng.int rng 20_000 }
  | n when n < 95 -> Drain
  | _ ->
      Disk_dma { proc = proc (); page = page ();
                 nbytes = 4 * (1 + Rng.int rng 1024); dir = dir ();
                 bounce = Rng.bool rng }

let node_gen seed =
  let rng = Rng.create seed in
  let setup =
    { seed;
      mem_pages = 16 + Rng.int rng 16;
      depth = (if Rng.bool rng then None else Some (1 + Rng.int rng 3));
      write_upgrade = Rng.bool rng;
      nprocs = 2 + Rng.int rng 2;
      pages_per_proc = 3 + Rng.int rng 3;
    }
  in
  (setup, fun () -> gen_action rng)

(* ---------- execution ---------- *)

type ctx = {
  m : M.t;
  procs : Proc.t array;
  bufs : int array ref array;  (* per-process buffer vaddrs, growable *)
  disk : Disk.t;
  flaky : bool ref;
  preempt_pct : int ref;
}

let dev_slots = 8
let max_pages_per_proc = 12

let build ?skip_invariant ~trace setup =
  let config =
    { M.default_config with
      M.mem_pages = setup.mem_pages;
      virt_pages = 256;
      tlb_entries = 8;
      udma_mode =
        Some
          (match setup.depth with
          | None -> Udma_engine.Basic
          | Some depth -> Udma_engine.Queued { depth });
      i3_policy =
        (if setup.write_upgrade then M.Write_upgrade else M.Proxy_dirty_union);
      trace_enabled = trace;
    }
  in
  let m = M.create ~config ?skip_invariant () in
  let udma = Option.get m.M.udma in
  let flaky = ref false in
  let port, _store = Device.buffer "chaos-dev" ~size:(dev_slots * 4096) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:dev_slots ~port
    ~validate:(fun ~dev_addr:_ ~nbytes:_ -> if !flaky then 1 else 0)
    ();
  let disk =
    Disk.create
      ~geometry:
        { Disk.blocks = 16; block_size = 4096; seek_base_cycles = 500;
          seek_per_block_cycles = 10; transfer_cycles_per_block = 200 }
      ()
  in
  let procs =
    Array.init setup.nprocs (fun i ->
        Scheduler.spawn m ~name:(Printf.sprintf "p%d" i))
  in
  Array.iter
    (fun p ->
      for i = 0 to dev_slots - 1 do
        match
          Syscall.map_device_proxy m p ~vdev_index:i ~pdev_index:i
            ~writable:true
        with
        | Ok () -> ()
        | Error _ -> assert false
      done)
    procs;
  let bufs =
    Array.map
      (fun p ->
        ref
          (Array.init setup.pages_per_proc (fun _ ->
               Kernel.alloc_buffer m p ~bytes:4096)))
      procs
  in
  let preempt_pct = ref 0 in
  let exec_rng = Rng.create (setup.seed lxor 0x5eed) in
  Scheduler.set_preempt_hook m
    (Some (fun _ -> !preempt_pct > 0 && Rng.int exec_rng 100 < !preempt_pct));
  m.M.on_switch <-
    Some
      (fun m ->
        match Oracle.post_switch m with
        | Some v -> raise (Oracle.Violation v)
        | None -> ());
  { m; procs; bufs; disk; flaky; preempt_pct }

let proc_of ctx i = ctx.procs.(i mod Array.length ctx.procs)

let vaddr_of ctx ~proc ~page =
  let arr = !(ctx.bufs.(proc mod Array.length ctx.procs)) in
  arr.(page mod Array.length arr)

let dev_vaddr ctx i = Kernel.vdev_addr ctx.m ~index:(i mod dev_slots) ~offset:0

let endpoints ctx ~proc ~page ~dev_page = function
  | Out ->
      ( Initiator.Memory (vaddr_of ctx ~proc ~page),
        Initiator.Device (dev_vaddr ctx dev_page) )
  | In ->
      ( Initiator.Device (dev_vaddr ctx dev_page),
        Initiator.Memory (vaddr_of ctx ~proc ~page) )

(* Raw STORE/LOAD addresses: the count is stored to the DESTINATION
   proxy, the initiating LOAD reads the SOURCE proxy. *)
let raw_pair_addrs ctx ~proc ~page ~dev_page dir =
  let mem_proxy =
    Layout.proxy_of ctx.m.M.layout (vaddr_of ctx ~proc ~page)
  in
  let dev = dev_vaddr ctx dev_page in
  match dir with
  | Out -> (dev, mem_proxy) (* store to device dest, load memory src *)
  | In -> (mem_proxy, dev)

let apply ctx action =
  let m = ctx.m in
  match action with
  | Xfer { proc; page; dev_page; nbytes; dir; queued } ->
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      let src, dst = endpoints ctx ~proc ~page ~dev_page dir in
      let xfer = if queued then Initiator.transfer_queued
                 else Initiator.transfer in
      ignore (xfer cpu ~layout:m.M.layout ~src ~dst ~nbytes ())
  | Raw_pair { proc; page; dev_page; nbytes; dir } ->
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      let store_to, load_from = raw_pair_addrs ctx ~proc ~page ~dev_page dir in
      cpu.Initiator.store ~vaddr:store_to (Int32.of_int nbytes);
      ignore (cpu.Initiator.load ~vaddr:load_from)
  | Half_pair { proc; page; dev_page; nbytes; dir } ->
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      let store_to, _ = raw_pair_addrs ctx ~proc ~page ~dev_page dir in
      cpu.Initiator.store ~vaddr:store_to (Int32.of_int nbytes)
  | Probe { proc; dev_page } ->
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      ignore (cpu.Initiator.load ~vaddr:(dev_vaddr ctx dev_page))
  | Wrong_space { proc; page; nbytes } ->
      (* memory-to-memory: the hardware must refuse with BadLoad *)
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      let proxy = Layout.proxy_of m.M.layout (vaddr_of ctx ~proc ~page) in
      cpu.Initiator.store ~vaddr:proxy (Int32.of_int nbytes);
      ignore (cpu.Initiator.load ~vaddr:proxy)
  | Unaligned { proc; page } ->
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      let proxy = Layout.proxy_of m.M.layout (vaddr_of ctx ~proc ~page) in
      cpu.Initiator.store ~vaddr:(proxy + 2) 64l
  | Inval_store { proc } ->
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      let proxy = Layout.proxy_of m.M.layout (vaddr_of ctx ~proc ~page:0) in
      cpu.Initiator.store ~vaddr:proxy (-1l)
  | Burst { proc; page; dev_page; count; nbytes } ->
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      for i = 0 to count - 1 do
        let store_to, load_from =
          raw_pair_addrs ctx ~proc ~page:(page + i) ~dev_page:(dev_page + i)
            Out
        in
        cpu.Initiator.store ~vaddr:store_to (Int32.of_int nbytes);
        ignore (cpu.Initiator.load ~vaddr:load_from)
      done
  | Sys_enqueue { proc; page; dev_page; nbytes } -> (
      let p = proc_of ctx proc in
      let vaddr = vaddr_of ctx ~proc ~page in
      let vpn = Layout.page_of_addr m.M.layout vaddr in
      match Vm.frame_of_vpn m p ~vpn with
      | None -> () (* not resident; skip *)
      | Some frame ->
          let src_proxy = Layout.proxy_of m.M.layout (frame * 4096) in
          let dest_proxy =
            Layout.dev_proxy_addr m.M.layout ~page:(dev_page mod dev_slots)
              ~offset:0
          in
          ignore (Syscall.udma_enqueue_system m ~src_proxy ~dest_proxy ~nbytes))
  | Touch { proc; page; write } ->
      let p = proc_of ctx proc in
      let cpu = Kernel.user_cpu m p in
      let vaddr = vaddr_of ctx ~proc ~page in
      if write then cpu.Initiator.store ~vaddr 0xC0DEl
      else ignore (cpu.Initiator.load ~vaddr)
  | Clean { proc; page } ->
      let p = proc_of ctx proc in
      let vpn = Layout.page_of_addr m.M.layout (vaddr_of ctx ~proc ~page) in
      ignore (Vm.clean_page m p ~vpn)
  | Evict ->
      let frame = Vm.evict_one m in
      Frame_allocator.free m.M.alloc frame
  | Grow { proc } ->
      let i = proc mod Array.length ctx.procs in
      let arr = ctx.bufs.(i) in
      if Array.length !arr < max_pages_per_proc then
        let vaddr = Kernel.alloc_buffer m ctx.procs.(i) ~bytes:4096 in
        arr := Array.append !arr [| vaddr |]
  | Flaky b -> ctx.flaky := b
  | Preempt_rate { pct } -> ctx.preempt_pct := pct
  | Run_cycles { cycles } -> Engine.advance m.M.engine cycles
  | Drain -> Engine.run_until_idle m.M.engine
  | Disk_dma { proc; page; nbytes; dir; bounce } ->
      let p = proc_of ctx proc in
      let vaddr = vaddr_of ctx ~proc ~page in
      let dir =
        match dir with Out -> Syscall.To_device | In -> Syscall.From_device
      in
      let strategy =
        if bounce then Syscall.Copy_through_buffer else Syscall.Pin_user_pages
      in
      ignore
        (Syscall.dma_transfer m p ~dir ~vaddr ~nbytes ~port:(Disk.port ctx.disk)
           ~dev_addr:((page mod 8) * 4096) ~strategy)

let node =
  { prefix = "";
    gen = node_gen;
    seed_of = (fun s -> s.seed);
    build =
      (fun ?skip_invariant ~trace setup ->
        let ctx = build ?skip_invariant ~trace setup in
        { apply = apply ctx;
          check = (fun () -> Oracle.check_now ctx.m);
          drain = (fun () -> Engine.run_until_idle ctx.m.M.engine);
          events =
            (fun () ->
              (* Keep the invariant-relevant subsystems: UDMA engine
                 activity, VM faults and context switches; drop bus
                 noise like queue traffic. *)
              Trace.matching ctx.m.M.trace (fun ev ->
                  match ev.Trace.Event.subsystem with
                  | Trace.Event.Udma | Trace.Event.Vm | Trace.Event.Sched ->
                      true
                  | Trace.Event.Dma | Trace.Event.Ni | Trace.Event.Dev
                  | Trace.Event.Kernel | Trace.Event.Sim -> false)) });
    pp_setup;
    pp_action;
  }

(* ---------- mesh traffic scenario ---------- *)

module System = Udma_shrimp.System
module Router = Udma_shrimp.Router
module Messaging = Udma_shrimp.Messaging
module Ni = Udma_shrimp.Network_interface
module Backend = Udma_protect.Backend

(* A tenant id no spawned process can hold: the malicious-tenant
   actor presents it to every protection backend. *)
let rogue_pid = 9999

type mesh_action =
  | M_send of { src : int; dst : int; nbytes : int; pipelined : bool }
  | M_shaped_send of { src : int; dst : int }
  | M_half_pair of { node : int; page : int; nbytes : int }
  | M_burst of { src : int; dst : int; count : int; nbytes : int }
  | M_touch of { node : int; page : int; write : bool }
  | M_clean of { node : int; page : int }
  | M_evict of { node : int }
  | M_preempt of { node : int; pct : int }
  | M_link_fault of { from_node : int; to_node : int; fault : Router.fault }
  | M_credit_squeeze of { credits : int option }
  | M_rogue_tenant of { node : int; page : int }
  | M_revoke of { node : int; page : int }
  | M_backend_send of { node : int; page : int }
  | M_run of { cycles : int }
  | M_drain

type mesh_setup = {
  mesh_seed : int;
  mesh_nodes : int;
  contention : bool;
  adaptive : bool;
  mesh_pages : int;
  mesh_vcs : int;
  mesh_credits : int option;
  mesh_crossing : Router.crossing;
  mesh_flit_words : int;
}


let pp_mesh_action ppf = function
  | M_send x ->
      Format.fprintf ppf "send%s %d->%d nbytes=%d"
        (if x.pipelined then "-pipelined" else "") x.src x.dst x.nbytes
  | M_shaped_send x -> Format.fprintf ppf "shaped-send %d->%d" x.src x.dst
  | M_half_pair x ->
      Format.fprintf ppf "half-pair node=%d page=%d nbytes=%d" x.node x.page
        x.nbytes
  | M_burst x ->
      Format.fprintf ppf "burst %d->%d count=%d nbytes=%d" x.src x.dst
        x.count x.nbytes
  | M_touch x ->
      Format.fprintf ppf "touch-%s node=%d page=%d"
        (if x.write then "write" else "read") x.node x.page
  | M_clean x -> Format.fprintf ppf "clean node=%d page=%d" x.node x.page
  | M_evict x -> Format.fprintf ppf "evict node=%d" x.node
  | M_preempt x -> Format.fprintf ppf "preempt node=%d %d%%" x.node x.pct
  | M_link_fault x ->
      Format.fprintf ppf "link-%s %d->%d"
        (match x.fault with
        | Router.Link_dead -> "dead"
        | Router.Link_slow k -> Printf.sprintf "slow(x%d)" k
        | Router.Link_ok -> "heal")
        x.from_node x.to_node
  | M_credit_squeeze x ->
      Format.fprintf ppf "credit-squeeze rx=%s"
        (match x.credits with
        | None -> "unlimited"
        | Some n -> string_of_int n)
  | M_rogue_tenant x ->
      Format.fprintf ppf "rogue-tenant node=%d page=%d" x.node x.page
  | M_revoke x -> Format.fprintf ppf "revoke node=%d page=%d" x.node x.page
  | M_backend_send x ->
      Format.fprintf ppf "backend-send node=%d page=%d" x.node x.page
  | M_run x -> Format.fprintf ppf "run %d cycles" x.cycles
  | M_drain -> Format.pp_print_string ppf "drain"

let pp_mesh_setup ppf s =
  Format.fprintf ppf
    "seed=%d nodes=%d contention=%b routing=%s pages/node=%d vcs=%d rx=%s \
     crossing=%s"
    s.mesh_seed s.mesh_nodes s.contention
    (if s.adaptive then "adaptive" else "dimension-order")
    s.mesh_pages s.mesh_vcs
    (match s.mesh_credits with
    | None -> "unlimited"
    | Some n -> string_of_int n)
    (match s.mesh_crossing with
    | `Analytic -> "analytic"
    | `Flit -> Printf.sprintf "flit(%dw)" s.mesh_flit_words)

(* A random directed mesh link: a node and one of its in-mesh
   neighbours (the node counts below all tile complete rectangles, so
   every neighbour id is real). *)
let gen_mesh_link rng ~nodes =
  let w = Router.mesh_width nodes in
  let height = nodes / w in
  let a = Rng.int rng nodes in
  let x = a mod w and y = a / w in
  let neighbours =
    List.filter_map Fun.id
      [
        (if x > 0 then Some (a - 1) else None);
        (if x < w - 1 then Some (a + 1) else None);
        (if y > 0 then Some (a - w) else None);
        (if y < height - 1 then Some (a + w) else None);
      ]
  in
  (a, List.nth neighbours (Rng.int rng (List.length neighbours)))

let gen_mesh_action rng ~nodes ~credits0 =
  let node () = Rng.int rng nodes in
  let pair () =
    let s = node () in
    (s, (s + 1 + Rng.int rng (nodes - 1)) mod nodes)
  in
  (* the all-pairs channels occupy import slots 0..nodes-2 per node *)
  let slot () = Rng.int rng (nodes - 1) in
  match Rng.int rng 100 with
  | n when n < 24 ->
      let src, dst = pair () in
      M_send { src; dst; nbytes = 4 * (1 + Rng.int rng 256);
               pipelined = Rng.bool rng }
  | n when n < 38 ->
      let src, dst = pair () in
      M_burst { src; dst; count = 1 + Rng.int rng 4;
                nbytes = 4 * (1 + Rng.int rng 128) }
  | n when n < 48 ->
      M_touch { node = node (); page = Rng.int rng 4; write = Rng.bool rng }
  | n when n < 54 -> M_clean { node = node (); page = Rng.int rng 4 }
  | n when n < 60 -> M_evict { node = node () }
  | n when n < 66 -> M_preempt { node = node (); pct = 5 + Rng.int rng 30 }
  | n when n < 74 ->
      let from_node, to_node = gen_mesh_link rng ~nodes in
      let fault =
        match Rng.int rng 5 with
        | 0 | 1 -> Router.Link_dead
        | 2 | 3 -> Router.Link_slow (2 + Rng.int rng 7)
        | _ -> Router.Link_ok
      in
      M_link_fault { from_node; to_node; fault }
  | n when n < 79 -> M_rogue_tenant { node = node (); page = slot () }
  | n when n < 83 -> M_revoke { node = node (); page = slot () }
  | n when n < 86 -> M_backend_send { node = node (); page = slot () }
  | n when n < 89 ->
      let src, dst = pair () in
      M_shaped_send { src; dst }
  | n when n < 92 -> M_run { cycles = 100 + Rng.int rng 10_000 }
  | n when n < 96 ->
      (* shrink the deposit FIFOs under load 3 of 5 draws, restore the
         setup's capacity otherwise *)
      let credits =
        if Rng.int rng 5 < 3 then Some (1 + Rng.int rng 3) else credits0
      in
      M_credit_squeeze { credits }
  | _ -> M_drain

(* Node counts must tile complete mesh rows (Router.valid_nodes): a
   2x2, 3x2 or 3x3 mesh, all with real adaptive path choice. *)
let mesh_node_choices = [| 4; 6; 9 |]

let mesh_gen seed =
  let rng = Rng.create (seed lxor 0x6e57) in
  (* the flit-crossing draws come from a second stream so that adding
     them did not perturb the main stream — every pre-flit seed still
     produces the same nodes/contention/.../action sequence, keeping
     the committed N1/N2/P1/P2/D1 64-seed catch guarantees intact *)
  let frng = Rng.create (seed lxor 0xf117) in
  (* half-initiated pairs come from a third stream for the same reason:
     the main stream's action sequence stays as it was, and a half pair
     only delays the main-stream actions after it *)
  let hrng = Rng.create (seed lxor 0x4a1f) in
  let mesh_setup =
    { mesh_seed = seed;
      mesh_nodes = mesh_node_choices.(Rng.int rng 3);
      (* contention on for 3 of 4 seeds: the point of the scenario *)
      contention = Rng.int rng 4 > 0;
      (* adaptive for 3 of 4 seeds: link faults are routed around;
         the rest cross dead links on the recovery path *)
      adaptive = Rng.int rng 4 > 0;
      mesh_pages = 2 + Rng.int rng 2;
      (* several VCs for 3 of 4 seeds, finite credits for 3 of 4:
         the flow-control surface the N1/N2 oracles watch *)
      mesh_vcs = 1 + Rng.int rng 4;
      mesh_credits =
        (if Rng.int rng 4 = 0 then None else Some (2 + Rng.int rng 6));
      (* flit-level crossing for 1 of 3 seeds — the F1 oracle's
         surface (mesh_build forces the combinations flit mode
         supports) *)
      mesh_crossing = (if Rng.int frng 3 = 0 then `Flit else `Analytic);
      mesh_flit_words = [| 1; 2; 4 |].(Rng.int frng 3);
    }
  in
  let nodes = mesh_setup.mesh_nodes in
  ( mesh_setup,
    fun () ->
      if Rng.int hrng 100 < 8 then
        M_half_pair { node = Rng.int hrng nodes; page = Rng.int hrng 4;
                      nbytes = 4 * (1 + Rng.int hrng 1024) }
      else gen_mesh_action rng ~nodes ~credits0:mesh_setup.mesh_credits )

type mesh_ctx = {
  sys : System.t;
  mesh_procs : Proc.t array;
  mesh_chans : Messaging.channel option array array;
  mesh_bufs : int array array; (* per node: mesh_pages buffer vaddrs *)
  mesh_shadows : (Backend.t * Backend.t) array;
      (* per node: IOMMU and capability backends mirroring the NI's
         grants, so the rogue tenant attacks all three designs *)
  preempt : int array;
  mesh_rng : Rng.t;
  mesh_flit : bool;
      (* flit seeds cap message sizes: a 4 KB worm is ~1000 flit
         crossings per hop, which would dominate the sweep's runtime
         without exercising anything new *)
}

(* Every protection backend a node exposes: the NI's production proxy
   backend plus the two shadows. *)
let node_backends ctx i =
  let iommu, cap = ctx.mesh_shadows.(i) in
  [ Ni.backend (System.node ctx.sys i).System.ni; iommu; cap ]

let at_node violation i =
  { violation with
    Oracle.detail =
      Printf.sprintf "node %d: %s" i violation.Oracle.detail }

let mesh_build ?skip_invariant setup =
  let flit = setup.mesh_crossing = `Flit in
  let config =
    { System.default_config with
      System.router =
        { Router.default_config with
          Router.link_contention = setup.contention;
          Router.routing =
            (* flit mode is dimension-order only *)
            (if setup.adaptive && not flit then `Minimal_adaptive
             else `Dimension_order);
          Router.vc_count = setup.mesh_vcs;
          Router.rx_credits =
            (* flit seeds always exercise finite input FIFOs: that is
               the credit half of the F1 conservation identity *)
            (if flit && setup.mesh_credits = None then Some 4
             else setup.mesh_credits);
          Router.crossing = setup.mesh_crossing;
          Router.flit_words = setup.mesh_flit_words } }
  in
  let sys = System.create ~config ?skip_invariant ~nodes:setup.mesh_nodes () in
  let nodes = setup.mesh_nodes in
  let mesh_procs =
    Array.init nodes (fun i ->
        let m = (System.node sys i).System.machine in
        let proc = Scheduler.spawn m ~name:(Printf.sprintf "mesh%d" i) in
        (* a second, idle process gives preemption somewhere to go:
           without it no node ever context-switches and I1 is vacuous *)
        ignore (Scheduler.spawn m ~name:(Printf.sprintf "idle%d" i));
        proc)
  in
  (* all-pairs channels, sequential import slots per sender *)
  let mesh_chans = Array.make_matrix nodes nodes None in
  for src = 0 to nodes - 1 do
    let idx = ref 0 in
    for dst = 0 to nodes - 1 do
      if dst <> src then begin
        mesh_chans.(src).(dst) <-
          Some
            (Messaging.connect sys ~sender:(src, mesh_procs.(src))
               ~receiver:(dst, mesh_procs.(dst)) ~first_index:!idx ~pages:1 ());
        incr idx
      end
    done
  done;
  let mesh_bufs =
    Array.init nodes (fun i ->
        let m = (System.node sys i).System.machine in
        Array.init setup.mesh_pages (fun _ ->
            Kernel.alloc_buffer m mesh_procs.(i) ~bytes:4096))
  in
  (* Shadow IOMMU/capability backends mirror the proxy grants the
     channel setup just installed, under the same planted bug (if
     any), so every design faces the same rogue probes. *)
  let backend_mutation =
    match skip_invariant with
    | Some `P1 -> Some (Backend.Owner_skip 0)
    | Some `P2 -> Some Backend.Stale_revoke
    | Some (`I1 | `I2 | `I3 | `I4 | `I5 | `N1 | `N2 | `F1 | `F2 | `D1)
    | None ->
        None
  in
  let mesh_shadows =
    Array.init nodes (fun i ->
        let ni_backend = Ni.backend (System.node sys i).System.ni in
        let entries = Backend.capacity ni_backend in
        let mirror kind =
          let b = Backend.create kind ~entries () in
          for index = 0 to entries - 1 do
            match Backend.decode ni_backend ~index with
            | Some { Backend.owner; dst_node; dst_frame } ->
                ignore (Backend.grant b ~owner ~index ~dst_node ~dst_frame)
            | None -> ()
          done;
          Backend.set_mutation b backend_mutation;
          b
        in
        (mirror Backend.Iommu, mirror Backend.Capability))
  in
  let preempt = Array.make nodes 0 in
  let mesh_rng = Rng.create (setup.mesh_seed lxor 0x5eed) in
  Array.iteri
    (fun i _ ->
      let m = (System.node sys i).System.machine in
      Scheduler.set_preempt_hook m
        (Some (fun _ -> preempt.(i) > 0 && Rng.int mesh_rng 100 < preempt.(i)));
      m.M.on_switch <-
        Some
          (fun m ->
            match Oracle.post_switch m with
            | Some v -> raise (Oracle.Violation (at_node v i))
            | None -> ()))
    mesh_procs;
  { sys; mesh_procs; mesh_chans; mesh_bufs; mesh_shadows; preempt;
    mesh_rng; mesh_flit = flit }

let mesh_apply ctx action =
  let machine i = (System.node ctx.sys i).System.machine in
  let chan src dst = Option.get ctx.mesh_chans.(src).(dst) in
  match action with
  | M_send { src; dst; nbytes; pipelined } ->
      let m = machine src in
      let cpu = Kernel.user_cpu m ctx.mesh_procs.(src) in
      let buf = ctx.mesh_bufs.(src).(0) in
      let ch = chan src dst in
      let cap =
        if ctx.mesh_flit then min 512 (Messaging.capacity ch)
        else Messaging.capacity ch
      in
      let nbytes = min nbytes cap in
      ignore
        (Messaging.send_nowait ch cpu ~src_vaddr:buf ~nbytes ~pipelined ())
  | M_shaped_send { src; dst } ->
      (* A strided gather starting 256 bytes before the end of the
         node's last (highest-frame) buffer: elements 2..4 stride past
         the source page. Fire-and-forget so the post-action check
         observes the request while it is outstanding — that is the
         window in which D1's unauthorized frame references exist. *)
      let m = machine src in
      let cpu = Kernel.user_cpu m ctx.mesh_procs.(src) in
      let bufs = ctx.mesh_bufs.(src) in
      let buf = bufs.(Array.length bufs - 1) in
      let page = Layout.page_size m.M.layout in
      let ch = chan src dst in
      ignore
        (Initiator.start_shaped cpu ~layout:m.M.layout
           ~src:(Initiator.Memory (buf + page - 256))
           ~dst:(Initiator.Device (Messaging.dev_vaddr ch ~offset:0))
           ~shape:(Initiator.Strided_shape { stride = 512; chunk = 256 })
           ~nbytes:1024 ())
  | M_half_pair { node; page; nbytes } ->
      (* the STORE of a device-to-memory pair with no LOAD: the engine
         latches a memory DESTINATION, the one frame reference that
         outlives simulated time (every transfer above completes as the
         clock runs). A context switch must invalidate it (I1) and
         replacement must leave its frame alone (I4). *)
      let m = machine node in
      let cpu = Kernel.user_cpu m ctx.mesh_procs.(node) in
      let bufs = ctx.mesh_bufs.(node) in
      let vaddr = bufs.(page mod Array.length bufs) in
      cpu.Initiator.store ~vaddr:(Layout.proxy_of m.M.layout vaddr)
        (Int32.of_int nbytes)
  | M_burst { src; dst; count; nbytes } ->
      let ch = chan src dst in
      let cap =
        if ctx.mesh_flit then min 512 (Messaging.capacity ch)
        else Messaging.capacity ch
      in
      let payload = Bytes.make (min nbytes cap) '\xAB' in
      for _ = 1 to count do
        Messaging.inject ch payload
      done
  | M_touch { node; page; write } ->
      let m = machine node in
      let cpu = Kernel.user_cpu m ctx.mesh_procs.(node) in
      let bufs = ctx.mesh_bufs.(node) in
      let vaddr = bufs.(page mod Array.length bufs) in
      if write then cpu.Initiator.store ~vaddr 0xC0DEl
      else ignore (cpu.Initiator.load ~vaddr)
  | M_clean { node; page } ->
      let m = machine node in
      let bufs = ctx.mesh_bufs.(node) in
      let vpn =
        Layout.page_of_addr m.M.layout bufs.(page mod Array.length bufs)
      in
      ignore (Vm.clean_page m ctx.mesh_procs.(node) ~vpn)
  | M_evict { node } ->
      (* a storm, not one reclaim: the first passes only clear
         second-chance referenced bits on the node's few user pages *)
      let m = machine node in
      for _ = 1 to 4 do
        let frame = Vm.evict_one m in
        Frame_allocator.free m.M.alloc frame
      done
  | M_preempt { node; pct } -> ctx.preempt.(node) <- pct
  | M_link_fault { from_node; to_node; fault } ->
      Router.set_link_fault (System.router ctx.sys) ~from_node ~to_node fault
  | M_credit_squeeze { credits } ->
      Router.set_rx_credits (System.router ctx.sys) credits
  | M_rogue_tenant { node; page } ->
      (* A malicious tenant probes another tenant's import slot, the
         hottest slot and an unconfigured index on every backend. Each
         probe must be denied; an acceptance is journalled and the I5
         oracle flags it at the post-action check. *)
      List.iter
        (fun b ->
          let cap = Backend.capacity b in
          List.iter
            (fun index ->
              ignore (Backend.authorize b ~tenant:rogue_pid ~index))
            [ page mod cap; 0; cap ])
        (node_backends ctx node)
  | M_revoke { node; page } ->
      (* Tear the import slot down on every backend; later sends on
         the channel fail benignly, and any datapath state that
         survives is I5's stale-invalidation counterexample. *)
      List.iter
        (fun b -> ignore (Backend.revoke b ~index:page))
        (node_backends ctx node)
  | M_backend_send { node; page } ->
      (* The slot's legitimate owner initiates through every backend
         (exercising IOTLB fills and capability checks); a denial on a
         live slot is benign, an acceptance is journalled for I5. *)
      let tenant = ctx.mesh_procs.(node).Proc.pid in
      List.iter
        (fun b -> ignore (Backend.authorize b ~tenant ~index:page))
        (node_backends ctx node)
  | M_run { cycles } -> Engine.advance (System.engine ctx.sys) cycles
  | M_drain -> System.run_until_idle ctx.sys

(* After every action: I2-I4 on every node's machine and I5 on each of
   its three backends, node by node, then the shared router's N1, N2
   and F1; first counterexample wins. *)
let mesh_check ctx () =
  let rec from i =
    if i = System.node_count ctx.sys then
      Oracle.check_router (System.router ctx.sys)
    else
      match Oracle.check_now (System.node ctx.sys i).System.machine with
      | Some v -> Some (at_node v i)
      | None -> (
          match List.find_map Oracle.check_i5 (node_backends ctx i) with
          | Some v -> Some (at_node v i)
          | None -> from (i + 1))
  in
  from 0

let mesh =
  { prefix = "mesh ";
    gen = mesh_gen;
    seed_of = (fun s -> s.mesh_seed);
    build =
      (fun ?skip_invariant ~trace:_ setup ->
        let ctx = mesh_build ?skip_invariant setup in
        { apply = mesh_apply ctx;
          check = mesh_check ctx;
          drain = (fun () -> System.run_until_idle ctx.sys);
          events = (fun () -> []) });
    pp_setup = pp_mesh_setup;
    pp_action = pp_mesh_action;
  }
