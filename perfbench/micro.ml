(* Unit costs of each layer's public entry point, measured with
   Bechamel, and the work counts inside the composite ones. A composite
   entry point (a router send, an NI inject, a user-level send) also
   fires engine events, bumps counters and crosses lower layers; its
   self cost is its measured cost minus the counted work of those
   layers, so that count x self cost adds up across layers without
   counting anything twice. *)

module W = Workloads
module Engine = Udma_sim.Engine
module Eventq = Udma_sim.Eventq
module Shard = Udma_sim.Shard
module Trace = Udma_sim.Trace
module Event = Udma_obs.Event
module Metrics = Udma_obs.Metrics
module Mmu = Udma_mmu.Mmu
module Tlb = Udma_mmu.Tlb
module Midend = Udma_dma.Midend
module Descriptor = Udma_dma.Descriptor
module M = Udma_os.Machine
module Proc = Udma_os.Proc
module Scheduler = Udma_os.Scheduler
module Kernel = Udma_os.Kernel
module Backend = Udma_protect.Backend
module System = Udma_shrimp.System
module Router = Udma_shrimp.Router
module Packet = Udma_shrimp.Packet
module Messaging = Udma_shrimp.Messaging
module Network_interface = Udma_shrimp.Network_interface

let noop _ = ()

(* The kv_hotshard wire: 4 VCs, 8 credits, contention, 2 cycles/word. *)
let analytic_router =
  {
    Router.default_config with
    Router.link_contention = true;
    vc_count = 4;
    rx_credits = Some 8;
    per_word_cycles = 2;
  }

let flit_router =
  { analytic_router with Router.crossing = `Flit; flit_words = 1; vc_count = 2 }

(* One schedule + fire of a no-op event, over 63 far-future events so
   the heap has a realistic depth. Includes the engine's two counter
   bumps per event. *)
let event_op () =
  let e = Engine.create () in
  for i = 1 to 63 do
    Engine.schedule_at e ~time:((max_int / 2) + i) noop
  done;
  fun () ->
    Engine.schedule e ~delay:0 noop;
    Engine.advance e 1

let eventq_op () =
  let q = Eventq.create () in
  for i = 0 to 63 do
    Eventq.push q ~time:i ()
  done;
  let t = ref 64 in
  fun () ->
    Eventq.push q ~time:!t ();
    ignore (Eventq.pop q);
    incr t

(* 64 no-op events over 16 shards and one 8-cycle lookahead window,
   drained on one domain: the kernel's per-event cost including its
   window barriers, at about the 4 events per shard per window the
   sharded workload runs. *)
let shard_batch = 64

let shard_op () =
  let k = Shard.create ~lookahead:8 ~shards:16 () in
  fun () ->
    for i = 0 to shard_batch - 1 do
      Shard.schedule k ~shard:(i land 15) ~delay:(i land 7) noop
    done;
    Shard.run ~domains:1 k

let incr_op names =
  let reg = Metrics.create () in
  List.iter (Metrics.incr reg) names;
  let a = Array.of_list names in
  let i = ref 0 in
  fun () ->
    Metrics.incr reg a.(!i);
    i := (!i + 1) mod Array.length a

let observe_op () =
  let reg = Metrics.create () in
  let v = ref 0 in
  fun () ->
    Metrics.observe reg "bench.latency_cycles" !v;
    v := (!v + 97) land 0xffff

let trace_off_op () =
  let tr = Trace.create ~enabled:false () in
  let p = Event.Note "off" in
  fun () -> Trace.record tr ~time:0 Event.Sim p

(* A router on a fresh engine with no-op sinks; [send] routes one
   2 KB packet and drains the engine. *)
type routed = { r_engine : Engine.t; r_router : Router.t; r_send : unit -> unit }

let router_rig config ~pair =
  let e = Engine.create () in
  let r = Router.create ~engine:e ~nodes:16 ~config () in
  for n = 0 to 15 do
    Router.register r ~node_id:n ignore
  done;
  let payload = Bytes.make 2048 'x' in
  let seq = ref 0 in
  let send () =
    let src, dst = pair !seq in
    incr seq;
    Router.send r { Packet.src_node = src; dst_node = dst; dst_paddr = 0; payload; seq = !seq };
    Engine.run_until_idle e
  in
  { r_engine = e; r_router = r; r_send = send }

(* fixed schedule of distinct pairs: s -> 7s+5 (mod 16) never maps a
   node to itself *)
let analytic_rig () =
  router_rig analytic_router ~pair:(fun i -> (i land 15, ((7 * (i land 15)) + 5) land 15))

(* one 2 KB worm corner to corner across the idle 4x4 mesh *)
let flit_rig () = router_rig flit_router ~pair:(fun _ -> (0, 15))

(* A 2-node system with one channel: the rig of the NI and UDMA
   micro-benchmarks. *)
type node_rig = {
  sys : System.t;
  ch : Messaging.channel;
  cpu : Udma.Initiator.cpu;
  buf : int;
  sender : M.t;
  proc : Proc.t;
}

let node_rig ?config () =
  let sys = System.create ?config ~nodes:2 () in
  let m = (System.node sys 0).System.machine in
  let sp = Scheduler.spawn m ~name:"micro-send" in
  let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"micro-recv" in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let buf = Kernel.alloc_buffer m sp ~bytes:4096 in
  Kernel.write_user m sp ~vaddr:buf (Bytes.make 4096 'u');
  let cpu = Kernel.user_cpu m sp in
  { sys; ch; cpu; buf; sender = m; proc = sp }

let inject_op (g : node_rig) =
  let payload = Bytes.make 2048 'n' in
  fun () ->
    Messaging.inject g.ch payload;
    System.run_until_idle g.sys

let send_op (g : node_rig) ~nbytes =
  let send () =
    match Messaging.send_nowait g.ch g.cpu ~src_vaddr:g.buf ~nbytes () with
    | Ok () -> System.run_until_idle g.sys
    | Error e -> failwith (Format.asprintf "micro send: %a" Messaging.pp_send_error e)
  in
  send ();
  send

let rig_regs (g : node_rig) =
  [ Engine.metrics (System.engine g.sys); g.sender.M.metrics;
    (System.node g.sys 1).System.machine.M.metrics ]

let translate_op (g : node_rig) =
  let mmu = g.sender.M.mmu and pt = g.proc.Proc.page_table in
  fun () -> ignore (Mmu.translate mmu pt Mmu.Read g.buf)

let plan_op (g : node_rig) ~elements =
  let port = Network_interface.port (System.node g.sys 0).System.ni in
  let len = 4096 / elements in
  let els =
    List.init elements (fun i ->
        { Descriptor.src = Descriptor.Mem (i * 2 * len);
          dst = Descriptor.Dev (port, i * len); len })
  in
  let bus = g.sender.M.bus in
  fun () -> ignore (Midend.plan ~bus els)

(* one 4 KB memory-to-device burst's data movement *)
let execute_op (g : node_rig) =
  let plan =
    Midend.plan ~bus:g.sender.M.bus
      [ { Descriptor.src = Descriptor.Mem 0; dst = Descriptor.Dev (Udma_dma.Device.null "sink", 0);
          len = 4096 } ]
  in
  fun () -> Udma_dma.Backend.execute g.sender.M.bus plan

let proxy_backend () =
  let b = Backend.create Backend.Proxy ~entries:64 () in
  ignore (Backend.grant b ~owner:1 ~index:3 ~dst_node:1 ~dst_frame:5);
  b

let authorize_op () =
  let b = proxy_backend () in
  fun () -> ignore (Backend.authorize b ~tenant:(-1) ~index:3)

let validate_op () =
  let b = proxy_backend () in
  fun () -> ignore (Backend.validate_bits b ~dev_addr:(3 * 4096) ~nbytes:64 ~page_size:4096)

(* ------------------------------------------------------------------ *)
(* measurement                                                         *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* ns per call of each named thunk, by ordinary least squares over
   Bechamel's samples *)
let ns_per_call ~quota thunks =
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) thunks
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" ~fmt:"%s%s" tests) in
  let results = Analyze.all ols instance raw in
  List.map
    (fun (name, _) ->
      let ns =
        match Hashtbl.find_opt results name with
        | Some o -> (
            match Analyze.OLS.estimates o with Some (x :: _) -> x | Some [] | None -> nan)
        | None -> nan
      in
      (name, ns))
    thunks

(* Work counted inside [reps] calls of a composite op, per call. *)
let counts_per_call ~regs ?(extra = fun () -> []) op =
  let reps = 50 in
  let s0 = W.snap regs in
  let x0 = extra () in
  for _ = 1 to reps do
    op ()
  done;
  let reg, _ = W.registry_counts s0 regs in
  let x1 = extra () in
  let per v = v /. float_of_int reps in
  List.map (fun (k, v) -> (k, per v)) reg
  @ List.map2 (fun (k, a) (_, b) -> (k, per (b -. a))) x0 x1

(* Unit costs in ns, by name: each entry point's measured cost per
   call, and the self costs of the composite ones ([*_self_ns]) with the
   counted work of the layers beneath them taken out. *)
let measure ~quota ~counter_names =
  let names =
    if counter_names = [] then [ "engine.scheduled"; "engine.events_fired" ]
    else counter_names
  in
  let analytic = analytic_rig () and flit = flit_rig () in
  let ni = node_rig ~config:{ System.default_config with System.router = analytic_router } () in
  let ud = node_rig () and ud4k = node_rig () in
  (* a 4 KB send polls the status word for longer than a 64 B one: the
     two together split the user-level send into a per-initiation and
     a per-poll cost *)
  let inject = inject_op ni and send = send_op ud ~nbytes:64 in
  let send4k = send_op ud4k ~nbytes:4092 in
  let ns =
    ns_per_call ~quota
      [
        ("event_ns", event_op ());
        ("eventq_ns", eventq_op ());
        ("shard_batch_ns", shard_op ());
        ("incr_ns", incr_op names);
        ("observe_ns", observe_op ());
        ("trace_off_ns", trace_off_op ());
        ("router_send_ns", analytic.r_send);
        ("flit_packet_ns", flit.r_send);
        ("inject_deposit_ns", inject);
        ("udma_send_ns", send);
        ("udma_send_4k_ns", send4k);
        ("translate_ns", translate_op ud);
        ("plan_contig_ns", plan_op ud ~elements:1);
        ("plan_sg16_ns", plan_op ud ~elements:16);
        ("execute_4k_ns", execute_op ud);
        ("authorize_ns", authorize_op ());
        ("validate_ns", validate_op ());
      ]
  in
  let u k = List.assoc k ns in
  let routed (g : routed) () = [ ("packets", float_of_int (Router.packets_routed g.r_router)) ] in
  let rig_extra (g : node_rig) () =
    let tlb = Mmu.tlb g.sender.M.mmu in
    let get name = float_of_int (Metrics.get g.sender.M.metrics name) in
    [
      ("packets", float_of_int (Router.packets_routed (System.router g.sys)));
      ("tlb", float_of_int (Tlb.hits tlb + Tlb.misses tlb));
      ("initiations", get "udma.initiations");
      ("dma_transfers", get "dma.transfers");
      ("dma_bytes", get "dma.bytes_moved");
      ("probes", get "udma.probes");
    ]
  in
  let c_router =
    counts_per_call ~regs:[ Engine.metrics analytic.r_engine ] ~extra:(routed analytic)
      analytic.r_send
  in
  let c_flit =
    counts_per_call ~regs:[ Engine.metrics flit.r_engine ] ~extra:(routed flit) flit.r_send
  in
  let c_ni = counts_per_call ~regs:(rig_regs ni) ~extra:(rig_extra ni) inject in
  let c_ud = counts_per_call ~regs:(rig_regs ud) ~extra:(rig_extra ud) send in
  let c_ud4k = counts_per_call ~regs:(rig_regs ud4k) ~extra:(rig_extra ud4k) send4k in
  let c k counts = Option.value (List.assoc_opt k counts) ~default:0.0 in
  (* the engine, counter and histogram work every composite op does *)
  let self total counts =
    total -. (c "events" counts *. u "event_ns")
    -. (c "counter_updates" counts *. u "incr_ns")
    -. (c "observations" counts *. u "observe_ns")
  in
  let pos x = Float.max 0.0 x in
  let dma_byte_ns = u "execute_4k_ns" /. 4096.0 in
  let router_self_ns = pos (self (u "router_send_ns") c_router) in
  (* the flit crossing works in one all-links pass per flit-cycle
     event, so its unit is per engine event, not per packet *)
  let flit_event_self_ns =
    pos (self (u "flit_packet_ns") c_flit) /. Float.max 1.0 (c "events" c_flit)
  in
  let ni_self_ns = pos (self (u "inject_deposit_ns") c_ni -. (c "packets" c_ni *. router_self_ns)) in
  (* a send's own cost, net of the counted work beneath it *)
  let send_self total counts =
    self total counts
    -. (c "packets" counts *. (router_self_ns +. ni_self_ns))
    -. (c "tlb" counts *. u "translate_ns")
    -. (c "dma_transfers" counts *. u "plan_contig_ns")
    -. (c "dma_bytes" counts *. dma_byte_ns)
    -. (c "initiations" counts *. u "validate_ns")
  in
  let s64 = send_self (u "udma_send_ns") c_ud and s4k = send_self (u "udma_send_4k_ns") c_ud4k in
  let extra_polls = c "probes" c_ud4k -. c "probes" c_ud in
  let udma_poll_ns = if extra_polls > 0.0 then pos ((s4k -. s64) /. extra_polls) else 0.0 in
  let udma_self_ns = pos ((s64 -. (c "probes" c_ud *. udma_poll_ns)) /. Float.max 1.0 (c "initiations" c_ud)) in
  ns
  @ [
      ("shard_event_ns", u "shard_batch_ns" /. float_of_int shard_batch);
      ("dma_byte_ns", dma_byte_ns);
      ("router_self_ns", router_self_ns);
      ("flit_event_self_ns", flit_event_self_ns);
      ("ni_self_ns", ni_self_ns);
      ("udma_self_ns", udma_self_ns);
      ("udma_poll_ns", udma_poll_ns);
    ]
