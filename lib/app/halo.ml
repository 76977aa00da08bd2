module Engine = Udma_sim.Engine
module Fabric = Udma_traffic.Fabric
module Router = Udma_shrimp.Router

type config = {
  fabric : Fabric.config;
  tile_rows : int;
  row_bytes : int;
  halo_cols : int;
  iterations : int;
  warmup_iters : int;
  load : float;
}

let default_config =
  {
    fabric = Fabric.default_config;
    tile_rows = 32;
    row_bytes = 128;
    halo_cols = 16;
    iterations = 30;
    warmup_iters = 2;
    load = 0.5;
  }

type result = {
  iterations : int;
  stats : Slo.stats;
  makespan_cycles : int;
  strided_send_cycles : int;
  contiguous_send_cycles : int;
  compute_cycles : int;
  halos_sent : int;
  credit_stalls : int;
  drained : bool;
}

(* The exchange's own limits first, then the fabric's. *)
let validate cfg =
  if cfg.tile_rows < 1 then Error "Halo: tile_rows must be >= 1"
  else if cfg.row_bytes <= 0 || cfg.row_bytes land 3 <> 0 then
    Error "Halo: row_bytes must be a positive 4-byte multiple"
  else if cfg.halo_cols <= 0 || cfg.halo_cols land 3 <> 0 then
    Error "Halo: halo_cols must be a positive 4-byte multiple"
  else if cfg.halo_cols > cfg.row_bytes then Error "Halo: halo_cols must be <= row_bytes"
  else if ((cfg.tile_rows - 1) * cfg.row_bytes) + cfg.halo_cols > 4096 then
    Error "Halo: strided halo span exceeds the source page"
  else if cfg.tile_rows * cfg.halo_cols > 4092 then
    Error "Halo: east/west halo exceeds the channel capacity"
  else if cfg.row_bytes > 4092 then
    Error "Halo: north/south halo exceeds the channel capacity"
  else if cfg.iterations < 1 then Error "Halo: iterations must be >= 1"
  else if cfg.warmup_iters < 0 || cfg.warmup_iters >= cfg.iterations then
    Error "Halo: warmup_iters must be in 0..iterations-1"
  else if not (cfg.load > 0.0 && cfg.load <= 1.0) then
    Error "Halo: load must be in (0, 1]"
  else Fabric.validate cfg.fabric

(* Mesh neighbourhood, computable before the fabric exists (same
   row-major layout as Fabric.neighbors / the router). *)
let neighbors_of ~nodes ~width id =
  let x = id mod width and y = id / width in
  List.filter_map
    (fun (nx, ny) ->
      if nx < 0 || ny < 0 || nx >= width then None
      else
        let nid = nx + (ny * width) in
        if nid >= nodes then None else Some nid)
    [ (x, y - 1); (x - 1, y); (x + 1, y); (x, y + 1) ]
  |> List.sort compare

type peer = { id : int; east_west : bool; mutable received : int }

type node_state = {
  peers : peer array;
  mutable iter : int;  (* iteration currently in flight *)
  mutable started_at : int;
  mutable finished : bool;
}

let run ?probe cfg =
  Result.iter_error invalid_arg (validate cfg);
  let nodes = cfg.fabric.Fabric.nodes in
  let width = Router.mesh_width nodes in
  let nbrs = Array.init nodes (neighbors_of ~nodes ~width) in
  let pairs =
    List.concat_map
      (fun n -> List.map (fun p -> (n, p)) nbrs.(n))
      (List.init nodes Fun.id)
  in
  let fab = Fabric.create cfg.fabric ~pairs in
  Option.iter (fun f -> f (Fabric.engine fab)) probe;
  let ew_nbytes = cfg.tile_rows * cfg.halo_cols in
  let strided_cost =
    Fabric.calibrate_strided fab ~stride:cfg.row_bytes ~chunk:cfg.halo_cols
      ~nbytes:ew_nbytes
  in
  let contig_cost = Fabric.calibrate_send fab ~nbytes:cfg.row_bytes in
  let engine = Fabric.engine fab in
  let same_row a b = a / width = b / width in
  let send_work n =
    List.fold_left
      (fun acc p -> acc + if same_row n p then strided_cost else contig_cost)
      0 nbrs.(n)
  in
  let max_work =
    Array.fold_left Int.max 0 (Array.init nodes send_work)
  in
  let compute =
    Int.max 0
      (int_of_float (float_of_int max_work *. ((1.0 /. cfg.load) -. 1.0)))
  in
  let states =
    Array.init nodes (fun n ->
        {
          peers =
            Array.of_list
              (List.map
                 (fun p -> { id = p; east_west = same_row n p; received = 0 })
                 nbrs.(n));
          iter = 0;
          started_at = 0;
          finished = false;
        })
  in
  let lats = ref [] and done_nodes = ref 0 in
  let t_start = Fabric.now fab in
  (* iteration k is complete once every neighbour's k-tagged halo has
     landed: cumulative counters reach k+1. Neighbours drift by at most
     one iteration (they cannot send k+1 before our k arrives), so the
     counts disambiguate without tagging the payloads. *)
  let rec begin_iter node =
    let st = states.(node) in
    st.started_at <- Engine.now engine;
    Array.iteri
      (fun i p ->
        let nbytes = if p.east_west then ew_nbytes else cfg.row_bytes in
        let base = if p.east_west then strided_cost else contig_cost in
        (* the stencil compute rides on the first initiation of the
           iteration; the rest queue behind it on the node's CPU *)
        let cost = if i = 0 then compute + base else base in
        Fabric.post fab ~src:node ~dst:p.id ~nbytes ~cost
          ~on_deliver:(fun _ ->
            let dst = states.(p.id) in
            let back =
              Array.to_list dst.peers |> List.find (fun q -> q.id = node)
            in
            back.received <- back.received + 1;
            check p.id)
          ())
      st.peers;
    check node
  and check node =
    let st = states.(node) in
    if
      (not st.finished)
      && Array.for_all (fun p -> p.received >= st.iter + 1) st.peers
    then begin
      let lat = Engine.now engine - st.started_at in
      if st.iter >= cfg.warmup_iters then lats := lat :: !lats;
      st.iter <- st.iter + 1;
      if st.iter < cfg.iterations then begin_iter node
      else begin
        st.finished <- true;
        incr done_nodes
      end
    end
  in
  for node = 0 to nodes - 1 do
    begin_iter node
  done;
  Fabric.run_until_idle fab;
  {
    iterations = cfg.iterations - cfg.warmup_iters;
    stats = Slo.stats_of (Array.of_list !lats);
    makespan_cycles = Fabric.now fab - t_start;
    strided_send_cycles = strided_cost;
    contiguous_send_cycles = contig_cost;
    compute_cycles = compute;
    halos_sent = Fabric.launched fab;
    credit_stalls = Fabric.credit_stalls fab;
    drained = !done_nodes = nodes;
  }
