module Rng = Udma_sim.Rng
module Engine = Udma_sim.Engine
module Fabric = Udma_traffic.Fabric

type config = {
  fabric : Fabric.config;
  shards : int;
  clients_per_node : int;
  value_bytes : int;
  req_bytes : int;
  write_pct : int;
  hot_pct : int;
  server_cycles : int;
  warmup_cycles : int;
  window_cycles : int;
  load : float;
  chaos_links : bool;
}

let default_config =
  {
    fabric = Fabric.default_config;
    shards = 16;
    clients_per_node = 4;
    value_bytes = 2048;
    req_bytes = 64;
    write_pct = 10;
    hot_pct = 0;
    server_cycles = 120;
    warmup_cycles = 2_000;
    window_cycles = 60_000;
    load = 0.6;
    chaos_links = false;
  }

type result = {
  issued : int;
  completed : int;
  reads : int;
  writes : int;
  stats : Slo.stats;
  cold_stats : Slo.stats;
  throughput_per_kcycle : float;
  send_cycles : int;
  think_cycles : int;
  credit_stalls : int;
  chaos_events : int;
  drained : bool;
}

(* The store's own limits first, then the fabric's. *)
let validate cfg =
  let nodes = cfg.fabric.Fabric.nodes in
  if cfg.shards < 1 || cfg.shards > nodes then Error "Kv: shards must be in 1..nodes"
  else if cfg.clients_per_node < 1 then Error "Kv: clients_per_node must be >= 1"
  else if cfg.value_bytes <= 0 || cfg.value_bytes land 3 <> 0 then
    Error "Kv: value_bytes must be a positive 4-byte multiple"
  else if cfg.req_bytes <= 0 || cfg.req_bytes land 3 <> 0 then
    Error "Kv: req_bytes must be a positive 4-byte multiple"
  else if cfg.req_bytes + cfg.value_bytes > 4092 then
    Error "Kv: req_bytes + value_bytes must fit one channel page (4092)"
  else if cfg.write_pct < 0 || cfg.write_pct > 100 then
    Error "Kv: write_pct must be in 0..100"
  else if cfg.hot_pct < 0 || cfg.hot_pct > 100 then Error "Kv: hot_pct must be in 0..100"
  else if cfg.server_cycles < 0 then Error "Kv: server_cycles must be >= 0"
  else if cfg.warmup_cycles < 0 then Error "Kv: warmup_cycles must be >= 0"
  else if cfg.window_cycles < 1 then Error "Kv: window_cycles must be >= 1"
  else if not (Float.is_finite cfg.load && cfg.load > 0.0) then
    Error "Kv: load must be finite and > 0"
  else Fabric.validate cfg.fabric

(* Every node runs clients against every remote shard: requests flow
   client -> shard node, replies shard node -> client. A client's own
   node may host a shard, but the channel matrix has no self edge, so
   draws landing on the local shard remap to the next shard (a client
   only ever queries remote shards — the op the paper's protected
   user-level DMA exists for). *)
let pairs_of cfg =
  let nodes = cfg.fabric.Fabric.nodes in
  List.concat_map
    (fun c ->
      List.concat_map
        (fun s -> if s = c then [] else [ (c, s); (s, c) ])
        (List.init cfg.shards Fun.id))
    (List.init nodes Fun.id)

let run ?probe cfg =
  Result.iter_error invalid_arg (validate cfg);
  let nodes = cfg.fabric.Fabric.nodes in
  let fab = Fabric.create cfg.fabric ~pairs:(pairs_of cfg) in
  Option.iter (fun f -> f (Fabric.engine fab)) probe;
  let read_req_cost = Fabric.calibrate_send fab ~nbytes:cfg.req_bytes in
  let write_nbytes = cfg.req_bytes + cfg.value_bytes in
  let write_req_cost =
    if cfg.write_pct > 0 then Fabric.calibrate_send fab ~nbytes:write_nbytes
    else 0
  in
  let value_cost = Fabric.calibrate_send fab ~nbytes:cfg.value_bytes in
  let ack_cost = if cfg.write_pct > 0 then Fabric.calibrate_send fab ~nbytes:8 else 0 in
  (* load axis: each reply occupies a shard's CPU for about
     [server_cycles + value_cost]; with shards = nodes and uniform keys
     a node's clients offer clients_per_node/think requests per cycle
     against a 1/value_cost initiation capacity, so think scales the
     offered fraction. Hotspot skew then concentrates that offer. *)
  let think =
    Int.max 1
      (int_of_float
         (float_of_int (cfg.clients_per_node * value_cost) /. cfg.load))
  in
  let rng = Fabric.rng fab in
  let engine = Fabric.engine fab in
  let t0 = Fabric.now fab in
  let warm_end = t0 + cfg.warmup_cycles in
  let stop = warm_end + cfg.window_cycles in
  let issued = ref 0
  and completed = ref 0
  and reads = ref 0
  and writes = ref 0
  and all_issued = ref 0
  and all_completed = ref 0
  and lats = ref []
  and cold_lats = ref [] in
  let draw_shard node =
    let s =
      if cfg.hot_pct > 0 && Rng.int rng 100 < cfg.hot_pct then 0
      else Rng.int rng cfg.shards
    in
    if s = node then (s + 1) mod cfg.shards else s
  in
  let rec issue node () =
    let born = Engine.now engine in
    let shard = draw_shard node in
    let is_write = cfg.write_pct > 0 && Rng.int rng 100 < cfg.write_pct in
    let in_window = born >= warm_end && born < stop in
    incr all_issued;
    if in_window then begin
      incr issued;
      if is_write then incr writes else incr reads
    end;
    let req_nb, req_cost =
      if is_write then (write_nbytes, write_req_cost)
      else (cfg.req_bytes, read_req_cost)
    in
    let reply_nb, reply_cost =
      if is_write then (8, ack_cost) else (cfg.value_bytes, value_cost)
    in
    Fabric.post fab ~src:node ~dst:shard ~nbytes:req_nb ~cost:req_cost
      ~on_deliver:(fun _ ->
        (* the shard's CPU does the lookup/update, then initiates the
           reply — a read's value is a deliberate update straight into
           the client's mapped receive buffer (zero-copy) *)
        Fabric.post fab ~src:shard ~dst:node ~nbytes:reply_nb
          ~cost:(cfg.server_cycles + reply_cost)
          ~on_deliver:(fun done_at ->
            incr all_completed;
            if in_window then begin
              incr completed;
              let lat = done_at - born in
              lats := lat :: !lats;
              if shard <> 0 then cold_lats := lat :: !cold_lats
            end;
            let next = done_at + think in
            if next < stop then
              Engine.schedule_at engine ~time:next (fun _ -> issue node ()))
          ())
      ()
  in
  for node = 0 to nodes - 1 do
    (* with a single shard, clients on the shard node have no remote
       shard to query and sit out *)
    if not (cfg.shards = 1 && node = 0) then
      for _ = 1 to cfg.clients_per_node do
        let jitter = Rng.int rng (think + 1) in
        Engine.schedule_at engine ~time:(t0 + jitter) (fun _ -> issue node ())
      done
  done;
  if cfg.chaos_links then Fabric.chaos_links fab ~until:stop ();
  Fabric.run_until_idle fab;
  {
    issued = !issued;
    completed = !completed;
    reads = !reads;
    writes = !writes;
    stats = Slo.stats_of (Array.of_list !lats);
    cold_stats = Slo.stats_of (Array.of_list !cold_lats);
    throughput_per_kcycle =
      float_of_int !completed /. float_of_int nodes
      /. (float_of_int cfg.window_cycles /. 1000.0);
    send_cycles = value_cost;
    think_cycles = think;
    credit_stalls = Fabric.credit_stalls fab;
    chaos_events = Fabric.faults_injected fab;
    drained = !all_completed = !all_issued;
  }
