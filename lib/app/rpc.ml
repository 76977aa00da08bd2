module Rng = Udma_sim.Rng
module Engine = Udma_sim.Engine
module Fabric = Udma_traffic.Fabric
module Arrival = Udma_traffic.Arrival

type config = {
  fabric : Fabric.config;
  req_bytes : int;
  resp_bytes : int;
  server_cycles : int;
  burst : int;
  pool : int;
  warmup_cycles : int;
  window_cycles : int;
  load : float;
}

let default_config =
  {
    fabric = Fabric.default_config;
    req_bytes = 64;
    resp_bytes = 512;
    server_cycles = 200;
    burst = 8;
    pool = 16;
    warmup_cycles = 2_000;
    window_cycles = 60_000;
    load = 0.6;
  }

type result = {
  issued : int;
  completed : int;
  bursts : int;
  stats : Slo.stats;
  throughput_per_kcycle : float;
  offered_per_kcycle : float;
  send_cycles : int;
  credit_stalls : int;
  drained : bool;
}

(* The service's own limits first, then the fabric's. *)
let validate cfg =
  if cfg.req_bytes <= 0 || cfg.req_bytes land 3 <> 0 then
    Error "Rpc: req_bytes must be a positive 4-byte multiple"
  else if cfg.resp_bytes <= 0 || cfg.resp_bytes land 3 <> 0 || cfg.resp_bytes > 4092
  then Error "Rpc: resp_bytes must be a positive 4-byte multiple <= 4092"
  else if cfg.req_bytes > 4092 then Error "Rpc: req_bytes must be <= 4092"
  else if cfg.server_cycles < 0 then Error "Rpc: server_cycles must be >= 0"
  else if cfg.burst < 1 then Error "Rpc: burst must be >= 1"
  else if cfg.pool < 1 then Error "Rpc: pool must be >= 1"
  else if cfg.warmup_cycles < 0 then Error "Rpc: warmup_cycles must be >= 0"
  else if cfg.window_cycles < 1 then Error "Rpc: window_cycles must be >= 1"
  else if not (cfg.load > 0.0) then Error "Rpc: load must be > 0"
  else Fabric.validate cfg.fabric

type client = {
  node : int;
  rng : Rng.t;
  mutable outstanding : int;
  backlog : int Queue.t;  (* intended arrival times of waiting requests *)
}

let server = 0

let run ?probe cfg =
  Result.iter_error invalid_arg (validate cfg);
  let nodes = cfg.fabric.Fabric.nodes in
  let n_clients = nodes - 1 in
  let pairs =
    List.concat_map
      (fun c -> [ (c, server); (server, c) ])
      (List.init n_clients (fun i -> i + 1))
  in
  let fab = Fabric.create cfg.fabric ~pairs in
  Option.iter (fun f -> f (Fabric.engine fab)) probe;
  let req_cost = Fabric.calibrate_send fab ~nbytes:cfg.req_bytes in
  let resp_cost = Fabric.calibrate_send fab ~nbytes:cfg.resp_bytes in
  (* load axis: the server spends [server_cycles + resp_cost] per
     request, so the aggregate burst rate is set to offer [load] of
     that capacity, split evenly across clients *)
  let work = cfg.server_cycles + resp_cost in
  let burst_rate_per_kcycle =
    cfg.load *. 1000.0 /. float_of_int (n_clients * cfg.burst * work)
  in
  let arrival = Arrival.Poisson { per_kcycle = burst_rate_per_kcycle } in
  let engine = Fabric.engine fab in
  let t0 = Fabric.now fab in
  let warm_end = t0 + cfg.warmup_cycles in
  let stop = warm_end + cfg.window_cycles in
  let issued = ref 0
  and completed = ref 0
  and bursts = ref 0
  and all_issued = ref 0
  and all_completed = ref 0
  and lats = ref [] in
  let clients =
    Array.init n_clients (fun i ->
        {
          node = i + 1;
          rng = Fabric.rng fab;
          outstanding = 0;
          backlog = Queue.create ();
        })
  in
  let rec issue cl ~arrival_at =
    cl.outstanding <- cl.outstanding + 1;
    let in_window = arrival_at >= warm_end && arrival_at < stop in
    Fabric.post fab ~src:cl.node ~dst:server ~nbytes:cfg.req_bytes
      ~cost:req_cost
      ~on_deliver:(fun _ ->
        Fabric.post fab ~src:server ~dst:cl.node ~nbytes:cfg.resp_bytes
          ~cost:(cfg.server_cycles + resp_cost)
          ~on_deliver:(fun done_at ->
            incr all_completed;
            if in_window then begin
              incr completed;
              lats := (done_at - arrival_at) :: !lats
            end;
            cl.outstanding <- cl.outstanding - 1;
            if not (Queue.is_empty cl.backlog) then
              issue cl ~arrival_at:(Queue.pop cl.backlog))
          ())
      ()
  in
  let admit cl ~arrival_at =
    incr all_issued;
    if arrival_at >= warm_end && arrival_at < stop then incr issued;
    if cl.outstanding < cfg.pool then issue cl ~arrival_at
    else Queue.push arrival_at cl.backlog
  in
  let rec generate cl time =
    if time < stop then
      Engine.schedule_at engine ~time (fun _ ->
          let now = Engine.now engine in
          if now >= warm_end && now < stop then incr bursts;
          for _ = 1 to cfg.burst do
            admit cl ~arrival_at:now
          done;
          generate cl (now + Arrival.next_gap arrival cl.rng))
  in
  Array.iter (fun cl -> generate cl (t0 + Arrival.next_gap arrival cl.rng)) clients;
  Fabric.run_until_idle fab;
  {
    issued = !issued;
    completed = !completed;
    bursts = !bursts;
    stats = Slo.stats_of (Array.of_list !lats);
    throughput_per_kcycle =
      float_of_int !completed /. (float_of_int cfg.window_cycles /. 1000.0);
    offered_per_kcycle =
      float_of_int !issued /. (float_of_int cfg.window_cycles /. 1000.0);
    send_cycles = resp_cost;
    credit_stalls = Fabric.credit_stalls fab;
    drained = !all_completed = !all_issued;
  }
