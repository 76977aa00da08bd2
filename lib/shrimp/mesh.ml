(* The shared mesh under both wire models: the router's public
   vocabulary, the topology (shape, coordinates, the dimension-order
   path), the link table with its faults and counters, the delivery
   sinks and the per-pair in-order clamp. The wire itself — how a
   packet crosses a link under contention — lives in [Analytic] or
   [Flit]; [Router] picks one when it is created. *)

module Engine = Udma_sim.Engine

module Types = struct
  type routing = [ `Dimension_order | `Minimal_adaptive ]
  type crossing = [ `Analytic | `Flit ]

  type config = {
    base_cycles : int; per_hop_cycles : int; per_word_cycles : int;
    link_contention : bool; routing : routing; vc_count : int;
    rx_credits : int option; crossing : crossing; flit_words : int;
  }

  type fault = Link_ok | Link_slow of int | Link_dead

  (* The stats records, documented in router.mli. *)
  type link_stat = {
    from_node : int; to_node : int; xmits : int; busy_cycles : int;
    wait_cycles : int; max_depth : int;
  }

  type vc_stat = {
    vc_from : int; vc_to : int; vc_index : int; vc_grants : int;
    vc_max_depth : int; vc_max_skip : int;
  }

  type credit_stat = {
    cr_from : int; cr_to : int; cr_vc : int; cr_capacity : int; cr_held : int;
    cr_inflight : int; cr_free : int;
  }

  type flit_stat = {
    fl_from : int; fl_to : int; fl_vc : int; fl_capacity : int; fl_occ : int;
    fl_credits : int; fl_max_occ : int; fl_grants : int; fl_stall_cycles : int;
    fl_hol_cycles : int;
  }
end

include Types

let default_config =
  { base_cycles = 20; per_hop_cycles = 8; per_word_cycles = 1;
    link_contention = false; routing = `Dimension_order;
    vc_count = 1; rx_credits = None; crossing = `Analytic; flit_words = 1 }

(* A dead link is crossed only when it is the sole productive link left
   (the recovery/retransmit path); the crossing holds the wire this
   many times the normal occupancy. *)
let dead_crossing_factor = 64

let occupancy_factor = function
  | Link_ok -> 1
  | Link_slow k -> k
  | Link_dead -> dead_crossing_factor

(* Round-robin arbitration among the competitors for one physical
   link: grant the first ready one scanning circularly from [rr] (-1
   when none is). The caller advances [rr] to just past the grant,
   which bounds the wait of any continuously-ready competitor to
   [n - 1] skipped rounds (the distance from [rr] to it strictly
   shrinks on every skip). The flit crossing's head-flit VC allocator
   and [Router.arbitrate] use it; the analytic crossing's VC claim runs
   the same scan as a loop, with no closure per hop. *)
let arbitrate_by ~rr ~n ready =
  let g = ref (-1) and k = ref 0 in
  while !g < 0 && !k < n do
    let v = (rr + !k) mod n in
    if ready v then g := v;
    incr k
  done;
  !g

(* Width of the squarest mesh covering [nodes]. *)
let mesh_width nodes =
  let rec go w = if w * w >= nodes then w else go (w + 1) in
  go 1

(* A node count is routable only when it fills complete rows of that
   mesh: a partial top row would put ids >= nodes on dimension-order
   paths (the phantom-node bug — e.g. 5 nodes in a 3-wide mesh route
   4 -> 2 through the nonexistent node 5). *)
let valid_nodes nodes = nodes > 0 && nodes mod mesh_width nodes = 0

(* One directed mesh link: its endpoints, its fault state and the
   counters behind [link_stat]. Links are created on first use (a
   packet's claim or a fault) unless the wire model builds them all up
   front; a wire model keeps its own per-link state beside them. *)
type link = {
  l_src : int;
  l_dst : int;
  mutable l_fault : fault;
  mutable l_xmits : int;
  mutable l_busy_cycles : int;
  mutable l_wait_cycles : int;  (* head-of-line blocking accumulated here *)
  mutable l_max_depth : int;
}

type t = {
  engine : Engine.t;
  config : config;
  node_count : int;
  width : int;
  sinks : (Packet.t -> unit) option array;
  last_arrival : int array array;
      (* the in-order guarantee: every arrival is clamped to after the
         pair's previous one (see [deliver]); row [src], indexed by
         destination, is allocated on [src]'s first delivery and holds
         -1 for a pair with none yet *)
  links : (int * int, link) Hashtbl.t;
  mutable packets_routed : int;
}

let create ~engine ~nodes config =
  { engine; config; node_count = nodes; width = mesh_width nodes;
    sinks = Array.make nodes None; last_arrival = Array.make nodes [||];
    links = Hashtbl.create 64;
    packets_routed = 0 }

let check_node m id what =
  if id < 0 || id >= m.node_count then
    invalid_arg (Printf.sprintf "Router.%s: node %d out of range" what id)

let coords m id =
  check_node m id "coords";
  (id mod m.width, id / m.width)

let node_id m ~x ~y = x + (y * m.width)

let hops m ~src ~dst =
  check_node m src "coords";
  check_node m dst "coords";
  let w = m.width in
  abs ((src mod w) - (dst mod w)) + abs ((src / w) - (dst / w))

(* One step from [v] toward [goal] along one axis. *)
let step v goal = if v < goal then v + 1 else v - 1

(* The dimension-order path as directed (from, to) node pairs: walk x
   to the destination column, then y to the destination row. *)
let path m ~src ~dst =
  let sx, sy = coords m src and dx, dy = coords m dst in
  let rec go x y acc =
    if x <> dx then
      let x' = step x dx in
      go x' y ((node_id m ~x ~y, node_id m ~x:x' ~y) :: acc)
    else if y <> dy then
      let y' = step y dy in
      go x y' ((node_id m ~x ~y, node_id m ~x ~y:y') :: acc)
    else List.rev acc
  in
  go sx sy []

let latency_cycles m ~src ~dst ~bytes =
  let words = (bytes + 3) / 4 in
  m.config.base_cycles
  + (hops m ~src ~dst * m.config.per_hop_cycles)
  + (words * m.config.per_word_cycles)

(* Hand a packet to its sink at [nominal], clamped to after the pair's
   previous arrival. Under dimension-order the fixed path plus FIFO
   links already deliver in order and the clamp is a no-op; under
   minimal-adaptive or with several VCs, packets of one pair may take
   different paths or channels, so the clamp is what keeps the
   guarantee (test_props checks it under contention for both policies
   and with VCs + finite credits). *)
let deliver m pkt nominal =
  let src = pkt.Packet.src_node and dst = pkt.Packet.dst_node in
  if Array.length m.last_arrival.(src) = 0 then
    m.last_arrival.(src) <- Array.make m.node_count (-1);
  let row = m.last_arrival.(src) in
  let arrival = Int.max nominal (row.(dst) + 1) in
  row.(dst) <- arrival;
  match m.sinks.(pkt.Packet.dst_node) with
  | Some sink -> Engine.schedule_at m.engine ~time:arrival (fun _ -> sink pkt)
  | None -> ()

let link_of m a b =
  match Hashtbl.find_opt m.links (a, b) with
  | Some l -> l
  | None ->
      let l =
        { l_src = a; l_dst = b; l_fault = Link_ok; l_xmits = 0;
          l_busy_cycles = 0; l_wait_cycles = 0; l_max_depth = 0 }
      in
      Hashtbl.add m.links (a, b) l;
      l

let check_fault m ~from_node ~to_node fault =
  check_node m from_node "set_link_fault";
  check_node m to_node "set_link_fault";
  if hops m ~src:from_node ~dst:to_node <> 1 then
    invalid_arg
      (Printf.sprintf "Router.set_link_fault: %d-%d is not a mesh link"
         from_node to_node);
  match fault with
  | Link_slow k when k < 1 ->
      invalid_arg "Router.set_link_fault: slow factor must be >= 1"
  | Link_ok | Link_slow _ | Link_dead -> ()

let link_fault m ~from_node ~to_node =
  check_node m from_node "link_fault";
  check_node m to_node "link_fault";
  match Hashtbl.find_opt m.links (from_node, to_node) with
  | Some l -> l.l_fault
  | None -> Link_ok

let sorted_links m =
  Hashtbl.fold (fun _ l acc -> l :: acc) m.links []
  |> List.sort (fun a b -> compare (a.l_src, a.l_dst) (b.l_src, b.l_dst))

let link_stats m =
  List.map
    (fun l ->
      { from_node = l.l_src; to_node = l.l_dst; xmits = l.l_xmits;
        busy_cycles = l.l_busy_cycles; wait_cycles = l.l_wait_cycles;
        max_depth = l.l_max_depth })
    (sorted_links m)
