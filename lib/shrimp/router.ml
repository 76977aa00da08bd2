(* The router: a shared [Mesh] plus the one wire model chosen at
   creation. Every public function below matches on [wire] once; the
   config's [link_contention] and [crossing] are read nowhere but
   [create] (and [validate], which checks the combination). *)

module Engine = Udma_sim.Engine
module Metrics = Udma_obs.Metrics
include Mesh.Types

let default_config = Mesh.default_config
let dead_crossing_factor = Mesh.dead_crossing_factor
let arbitrate ~rr ~ready =
  match Mesh.arbitrate_by ~rr ~n:(Array.length ready) (Array.get ready) with
  | -1 -> None
  | v -> Some v

let mesh_width = Mesh.mesh_width
let valid_nodes = Mesh.valid_nodes

type wire =
  | Closed                      (* no contention: the closed form *)
  | Analytic of Analytic.t
  | Flit of Flit.t

type t = { mesh : Mesh.t; wire : wire }

let validate ~nodes config =
  let width = mesh_width nodes in
  if nodes <= 0 then Error "Router: nodes must be positive"
  else if config.vc_count < 1 || config.vc_count > 4 then
    Error "Router: vc_count must be in 1..4"
  else if Option.fold ~none:false ~some:(fun n -> n < 1) config.rx_credits then
    Error "Router: rx_credits must be >= 1"
  else if config.flit_words < 1 then Error "Router: flit_words must be >= 1"
  else if config.base_cycles < 0 || config.per_hop_cycles < 0 || config.per_word_cycles < 0
  then Error "Router: base_cycles, per_hop_cycles and per_word_cycles must be >= 0"
  else if config.crossing = `Flit && config.routing = `Minimal_adaptive then
    Error
      "Router: the flit crossing model is dimension-order only (adaptive choice \
       is packet-granularity)"
  else if nodes mod width <> 0 then
    Error
      (Printf.sprintf
         "Router: %d nodes leaves a partial row in the %d-wide mesh (paths would \
          cross phantom nodes); use a count that fills complete rows, e.g. 2, 4, \
          6, 9, 12, 16, 25, 36, 64"
         nodes width)
  else Ok ()

let create ~engine ~nodes ?(config = default_config) () =
  Result.iter_error invalid_arg (validate ~nodes config);
  let mesh = Mesh.create ~engine ~nodes config in
  let wire =
    match (config.link_contention, config.crossing) with
    | false, _ -> Closed
    | true, `Analytic -> Analytic (Analytic.create mesh)
    | true, `Flit -> Flit (Flit.create mesh)
  in
  { mesh; wire }

let width t = t.mesh.width
let coords t = Mesh.coords t.mesh
let hops t = Mesh.hops t.mesh
let path t = Mesh.path t.mesh
let latency_cycles t = Mesh.latency_cycles t.mesh
let packets_routed t = t.mesh.packets_routed

let register t ~node_id sink =
  Mesh.check_node t.mesh node_id "register";
  t.mesh.sinks.(node_id) <- Some sink

let route t ~src ~dst =
  match t.wire with
  | Analytic a -> Analytic.route a ~src ~dst
  | Closed | Flit _ -> Mesh.path t.mesh ~src ~dst

let send t pkt =
  let m = t.mesh in
  let src = pkt.Packet.src_node and dst = pkt.Packet.dst_node in
  Mesh.check_node m src "send";
  Mesh.check_node m dst "send";
  if Option.is_none m.sinks.(dst) then
    invalid_arg (Printf.sprintf "Router.send: node %d has no sink" dst);
  let bytes = Packet.size_bytes pkt in
  m.packets_routed <- m.packets_routed + 1;
  (* a packet to its own node crosses no wire *)
  match t.wire with
  | Analytic a when src <> dst -> Analytic.send a pkt
  | Flit f when src <> dst -> Flit.send f pkt
  | Closed | Analytic _ | Flit _ ->
      Mesh.deliver m pkt (Engine.now m.engine + Mesh.latency_cycles m ~src ~dst ~bytes)

let set_link_fault t ~from_node ~to_node fault =
  Mesh.check_fault t.mesh ~from_node ~to_node fault;
  let l =
    match t.wire with
    | Analytic a -> (Analytic.link_of a from_node to_node).ml
    | Closed | Flit _ -> Mesh.link_of t.mesh from_node to_node
  in
  l.l_fault <- fault;
  match t.wire with
  | Flit f -> Flit.fault_changed f ~from_node ~to_node
  | Closed | Analytic _ -> ()

let link_fault t = Mesh.link_fault t.mesh

let set_rx_credits t credits =
  (match credits with
  | Some n when n < 1 -> invalid_arg "Router.set_rx_credits: credits must be >= 1"
  | Some _ | None -> ());
  match t.wire with
  | Analytic a -> Analytic.set_rx_credits a credits
  | Closed | Flit _ -> ()

let rx_credits t =
  match t.wire with
  | Analytic a -> a.credits
  | Closed | Flit _ -> t.mesh.config.rx_credits

let injection_ready t ~src ~dst =
  match t.wire with
  | Analytic a -> Analytic.injection_ready a ~src ~dst
  | Closed | Flit _ -> Engine.now t.mesh.engine

let check_credits t =
  match t.wire with Analytic a -> Analytic.check_credits a | Closed | Flit _ -> None

let check_arbitration t =
  match t.wire with
  | Analytic a -> Analytic.check_arbitration a
  | Closed | Flit _ -> None

let vc_stats t =
  match t.wire with Analytic a -> Analytic.vc_stats a | Closed | Flit _ -> []

let credit_stats t =
  match t.wire with Analytic a -> Analytic.credit_stats a | Closed | Flit _ -> []

let check_flits t =
  match t.wire with Flit f -> Flit.check_flits f | Closed | Analytic _ -> None

let flit_stats t =
  match t.wire with Flit f -> Flit.flit_stats f | Closed | Analytic _ -> []

let flit_counts t =
  match t.wire with Flit f -> Flit.flit_counts f | Closed | Analytic _ -> (0, 0, 0)

let flit_vc_occupancy t =
  match t.wire with Flit f -> Flit.flit_vc_occupancy f | Closed | Analytic _ -> [||]

let link_stats t =
  (match t.wire with Flit f -> Flit.settle_all f | Closed | Analytic _ -> ());
  Mesh.link_stats t.mesh

let publish_link_gauges t =
  let em = Engine.metrics t.mesh.engine in
  let now = Engine.now t.mesh.engine in
  if now > 0 then
    List.iter
      (fun s ->
        Metrics.set_gauge em
          (Printf.sprintf "net.link.util.%d-%d" s.from_node s.to_node)
          (float_of_int s.busy_cycles /. float_of_int now))
      (link_stats t)
