module Engine = Udma_sim.Engine
module Rng = Udma_sim.Rng
module Metrics = Udma_obs.Metrics
module Scheduler = Udma_os.Scheduler
module Kernel = Udma_os.Kernel
module System = Udma_shrimp.System
module Router = Udma_shrimp.Router
module Messaging = Udma_shrimp.Messaging
module Network_interface = Udma_shrimp.Network_interface

type config = {
  nodes : int;
  vc_count : int;
  rx_credits : int option;
  routing : Router.routing;
  link_per_word : int;
  link_contention : bool;
  seed : int;
}

let default_config =
  {
    nodes = 16;
    vc_count = 1;
    rx_credits = Some 8;
    routing = `Dimension_order;
    link_per_word = 1;
    link_contention = true;
    seed = 42;
  }

type pending = {
  dst : int;
  nbytes : int;
  cost : int;
  on_deliver : (int -> unit) option;
}

type cpu_q = { node : int; q : pending Queue.t; mutable serving : bool }

type t = {
  nodes : int;
  sys : System.t;
  engine : Engine.t;
  router : Router.t;
  procs : Udma_os.Proc.t array;
  channels : Messaging.channel option array array;
  cpus : cpu_q array;
  inflight : (int -> unit) option Queue.t option array array;
      (* shaped like [channels]; a pair's queue is made on first use *)
  mutable payloads : bytes list;  (* one per size; a fabric sends one or two *)
  send_costs : (int, int) Hashtbl.t;  (* nbytes -> calibrated cycles *)
  master : Rng.t;
  chaos_rng : Rng.t;
  mutable credit_stall_cycles : int;
  c_launched : Metrics.counter;
  c_delivered : Metrics.counter;
  c_credit_stalls : Metrics.counter;
  c_chaos_events : Metrics.counter;
}

let capacity = 4092 (* one-page channel minus the flag word *)

let router_config (cfg : config) =
  { Router.default_config with
    Router.link_contention = cfg.link_contention;
    Router.routing = cfg.routing;
    Router.per_word_cycles = cfg.link_per_word;
    Router.vc_count = cfg.vc_count;
    Router.rx_credits = cfg.rx_credits }

(* The fabric's own limits; the mesh shape, VCs and credits are the
   router's to judge. *)
let validate (cfg : config) =
  if cfg.nodes < 2 || cfg.nodes > 64 then Error "Fabric: nodes must be in 2..64"
  else if cfg.link_per_word < 1 then Error "Fabric: link_per_word must be >= 1"
  else Router.validate ~nodes:cfg.nodes (router_config cfg)

let check_nbytes nbytes =
  if nbytes <= 0 || nbytes land 3 <> 0 || nbytes > capacity then
    invalid_arg
      (Printf.sprintf
         "Fabric: nbytes %d must be a positive 4-byte multiple <= %d" nbytes
         capacity)

let channel t src dst =
  match t.channels.(src).(dst) with
  | Some ch -> ch
  | None ->
      invalid_arg (Printf.sprintf "Fabric: no channel for pair %d->%d" src dst)

let inflight_q t src dst =
  match t.inflight.(src).(dst) with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      t.inflight.(src).(dst) <- Some q;
      q

let rec sized nbytes = function
  | b :: rest -> if Bytes.length b = nbytes then b else sized nbytes rest
  | [] -> raise Not_found

(* Deterministic per-size fill; also what tests check in the importer's
   receive buffer to confirm the zero-copy deposit. *)
let payload t ~nbytes =
  match sized nbytes t.payloads with
  | b -> b
  | exception Not_found ->
      let b = Bytes.init nbytes (fun i -> Char.chr ((i + nbytes) land 0xff)) in
      t.payloads <- b :: t.payloads;
      b

let attach sys ~seed ~pairs =
  let nodes = System.node_count sys in
  if pairs = [] then invalid_arg "Fabric: empty pair list";
  List.iter
    (fun (s, d) ->
      if s = d || s < 0 || d < 0 || s >= nodes || d >= nodes then
        invalid_arg (Printf.sprintf "Fabric: bad pair %d->%d" s d))
    pairs;
  let engine = System.engine sys in
  let router = System.router sys in
  let procs =
    Array.init nodes (fun i ->
        Scheduler.spawn (System.node sys i).System.machine
          ~name:(Printf.sprintf "app%d" i))
  in
  let channels = Array.make_matrix nodes nodes None in
  let next_index = Array.make nodes 0 in
  List.iter
    (fun (src, dst) ->
      if channels.(src).(dst) = None then begin
        let ch =
          Messaging.connect sys ~sender:(src, procs.(src))
            ~receiver:(dst, procs.(dst)) ~first_index:next_index.(src) ~pages:1
            ()
        in
        next_index.(src) <- next_index.(src) + 1;
        channels.(src).(dst) <- Some ch
      end)
    pairs;
  let master = Rng.create seed in
  let t =
    {
      nodes;
      sys;
      engine;
      router;
      procs;
      channels;
      cpus =
        Array.init nodes (fun node ->
            { node; q = Queue.create (); serving = false });
      inflight = Array.make_matrix nodes nodes None;
      payloads = [];
      send_costs = Hashtbl.create 8;
      master;
      chaos_rng = Rng.split master;
      credit_stall_cycles = 0;
      c_launched = Metrics.counter (Engine.metrics engine) "app.launched";
      c_delivered = Metrics.counter (Engine.metrics engine) "app.delivered";
      c_credit_stalls =
        Metrics.counter (Engine.metrics engine) "app.credit_stalls";
      c_chaos_events =
        Metrics.counter (Engine.metrics engine) "app.chaos_link_events";
    }
  in
  (* delivery sinks: receive the deposit, then fire the matched
     callback. Per-(src,dst) FIFO matching is sound because every
     message is one packet and the router delivers in order per pair
     (the arrival clamp holds under adaptive routing and VCs too).
     Unmatched packets — calibration sends, flag words — fall through. *)
  for d = 0 to nodes - 1 do
    let node = System.node sys d in
    Router.register router ~node_id:d (fun pkt ->
        Network_interface.receive node.System.ni pkt;
        let q = inflight_q t pkt.Udma_shrimp.Packet.src_node d in
        if not (Queue.is_empty q) then begin
          Metrics.bump t.c_delivered;
          match Queue.pop q with
          | Some k -> k (Engine.now engine)
          | None -> ()
        end)
  done;
  t

let create (cfg : config) ~pairs =
  Result.iter_error invalid_arg (validate cfg);
  attach
    (System.create
       ~config:{ System.default_config with System.router = router_config cfg }
       ~nodes:cfg.nodes ())
    ~seed:cfg.seed ~pairs

let engine t = t.engine
let nodes t = t.nodes
let now t = Engine.now t.engine
let rng t = Rng.split t.master

let neighbors t id =
  let w = Router.width t.router in
  let x = id mod w and y = id / w in
  List.filter_map
    (fun (nx, ny) ->
      if nx < 0 || ny < 0 || nx >= w then None
      else
        let nid = nx + (ny * w) in
        if nid >= t.nodes then None else Some nid)
    [ (x, y - 1); (x - 1, y); (x + 1, y); (x, y + 1) ]
  |> List.sort compare

(* One warm measured send on the first established channel out of some
   node — the per-message CPU occupancy the service model charges.
   Calibration packets reach the sinks unmatched and are ignored. *)
let first_pair t =
  let rec go src =
    if src >= t.nodes then assert false (* attach rejects empty pairs *)
    else
      match
        List.find_map
          (fun d -> Option.map (fun _ -> d) t.channels.(src).(d))
          (List.init t.nodes Fun.id)
      with
      | Some dst -> (src, dst)
      | None -> go (src + 1)
  in
  go 0

let measure t send =
  let warm () =
    match send () with
    | Ok _ -> ()
    | Error e ->
        failwith
          (Format.asprintf "Fabric: calibration send failed: %a"
             Messaging.pp_send_error e)
  in
  warm ();
  System.run_until_idle t.sys;
  let t0 = Engine.now t.engine in
  warm ();
  let dt = Engine.now t.engine - t0 in
  System.run_until_idle t.sys;
  dt

let calibration_buf t src =
  let m = (System.node t.sys src).System.machine in
  let buf = Kernel.alloc_buffer m t.procs.(src) ~bytes:4096 in
  Kernel.write_user m t.procs.(src) ~vaddr:buf
    (Bytes.init 4096 (fun i -> Char.chr (i land 0xff)));
  (Kernel.user_cpu m t.procs.(src), buf)

let calibrate_send t ~nbytes =
  check_nbytes nbytes;
  match Hashtbl.find_opt t.send_costs nbytes with
  | Some c -> c
  | None ->
      let src, dst = first_pair t in
      let ch = channel t src dst in
      let cpu, buf = calibration_buf t src in
      let c =
        measure t (fun () ->
            Messaging.send_nowait ch cpu ~src_vaddr:buf ~nbytes ())
      in
      Hashtbl.add t.send_costs nbytes c;
      c

let calibrate_strided t ~stride ~chunk ~nbytes =
  check_nbytes nbytes;
  if chunk <= 0 || stride < chunk then
    invalid_arg "Fabric.calibrate_strided: need 0 < chunk <= stride";
  let reps = (nbytes + chunk - 1) / chunk in
  if ((reps - 1) * stride) + chunk > 4096 then
    invalid_arg "Fabric.calibrate_strided: strided span exceeds the source page";
  let src, dst = first_pair t in
  let ch = channel t src dst in
  let cpu, buf = calibration_buf t src in
  measure t (fun () ->
      Messaging.send_strided ch cpu ~src_vaddr:buf ~stride ~chunk ~nbytes ())

(* service model: each node's CPU initiates queued messages one at a
   time, [cost] cycles each, then hands the payload to the NI — first
   consulting the router's injection gate when credits are finite, so
   an out-of-slots first hop stalls the source instead of queueing on
   the wire without bound. *)
let rec pump t (s : cpu_q) =
  if (not s.serving) && not (Queue.is_empty s.q) then begin
    s.serving <- true;
    let p = Queue.peek s.q in
    Engine.schedule t.engine ~delay:p.cost (fun _ -> launch t s)
  end

and launch t (s : cpu_q) =
  let p = Queue.peek s.q in
  let now = Engine.now t.engine in
  let ready = Router.injection_ready t.router ~src:s.node ~dst:p.dst in
  if ready > now then begin
    t.credit_stall_cycles <- t.credit_stall_cycles + (ready - now);
    Metrics.bump t.c_credit_stalls;
    Engine.schedule_at t.engine ~time:ready (fun _ -> launch t s)
  end
  else begin
    let p = Queue.pop s.q in
    Queue.push p.on_deliver (inflight_q t s.node p.dst);
    Messaging.inject (channel t s.node p.dst) (payload t ~nbytes:p.nbytes);
    Metrics.bump t.c_launched;
    s.serving <- false;
    pump t s
  end

let post t ~src ~dst ~nbytes ~cost ?on_deliver () =
  check_nbytes nbytes;
  if cost < 1 then invalid_arg "Fabric.post: cost must be >= 1";
  ignore (channel t src dst);
  Queue.push { dst; nbytes; cost; on_deliver } t.cpus.(src).q;
  pump t t.cpus.(src)

let run_until_idle t = System.run_until_idle t.sys

(* Seeded link chaos: the mesh harness's M_link_fault mix (kill /
   slow / heal at 2:2:1) applied on a period, app-level. Dead links
   still deliver (at dead_crossing_factor x occupancy), so closed
   loops always drain. *)
let chaos_links t ?(period = 5_000) ?(slow_factor = 4) ~until () =
  if period < 1 then invalid_arg "Fabric.chaos_links: period must be >= 1";
  let rng = t.chaos_rng in
  let rec step time =
    if time < until then
      Engine.schedule_at t.engine ~time (fun _ ->
          let from_node = Rng.int rng t.nodes in
          (match neighbors t from_node with
          | [] -> ()
          | ns ->
              let to_node = List.nth ns (Rng.int rng (List.length ns)) in
              let fault =
                match Rng.int rng 5 with
                | 0 | 1 -> Router.Link_dead
                | 2 | 3 -> Router.Link_slow slow_factor
                | _ -> Router.Link_ok
              in
              Router.set_link_fault t.router ~from_node ~to_node fault;
              Metrics.bump t.c_chaos_events);
          step (time + period))
  in
  step (Engine.now t.engine + period)

let launched t = Metrics.read t.c_launched
let delivered t = Metrics.read t.c_delivered
let credit_stalls t = Metrics.read t.c_credit_stalls
let credit_stall_cycles t = t.credit_stall_cycles
let faults_injected t = Metrics.read t.c_chaos_events

let read_payload t ~src ~dst ~len = Messaging.read_payload (channel t src dst) ~len
