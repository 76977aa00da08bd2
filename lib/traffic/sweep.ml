type point = { load : float; result : Load_gen.result }

type outcome = {
  send_cycles : int;
  points : point list;
  knee_index : int option;
  knee_load : float option;
}

let default_loads = [ 0.2; 0.4; 0.6; 0.8; 0.9; 1.0; 1.1 ]

(* Saturation knee: the first point whose mean latency exceeds
   [latency_factor] x the lightest point's mean, or that delivers less
   than [min_efficiency] of what was offered. Deterministic given the
   sweep's seed. *)
let latency_factor = 2.0
let min_efficiency = 0.9

(* Saturated independently of any latency baseline: nothing (or too
   little) of what was offered got through. *)
let inefficient (r : Load_gen.result) =
  (r.Load_gen.delivered = 0 && r.Load_gen.injected > 0)
  || r.Load_gen.injected > 0
     && float_of_int r.Load_gen.delivered
        < min_efficiency *. float_of_int r.Load_gen.injected

let detect_knee points =
  match points with
  | [] -> None
  | first :: rest ->
      (* the lightest point anchors the latency baseline, so it must
         itself be healthy: if it already fails the efficiency test the
         whole curve starts saturated — report the knee there rather
         than comparing later points against a saturated baseline *)
      if inefficient first.result then Some 0
      else
        let base = first.result.Load_gen.mean_latency in
        let saturated p =
          let r = p.result in
          inefficient r
          || (base > 0.0 && r.Load_gen.mean_latency >= latency_factor *. base)
        in
        (* the knee is the first point of SUSTAINED saturation: every
           later point must be saturated too. A non-monotone dip back
           under the threshold (a lucky seed at one load) disqualifies
           the candidate — without this, the dip's rebound used to be
           reported as the knee of an already-saturated curve *)
        let rec go i candidate = function
          | [] -> candidate
          | p :: rest ->
              if saturated p then
                go (i + 1) (if candidate = None then Some i else candidate) rest
              else go (i + 1) None rest
        in
        go 1 None rest

(* Engine dispatch for the [--domains] knob: the legacy global-engine
   path stays the default (and the byte-identity baseline for every
   committed anchor); the sharded conservative kernel takes over when
   parallelism is requested or the mesh exceeds the legacy 64-node
   cap. [domains = 1] on a small mesh therefore IS the current
   engine — the single-domain deterministic mode. *)
let use_sharded ~domains (cfg : Load_gen.config) =
  (* the flit crossing is a legacy-engine feature: the sharded kernel
     has no cycle-level wire model, so flit sweeps ignore [domains] *)
  cfg.crossing = `Analytic && (domains > 1 || cfg.nodes > 64)

exception Invalid_config of string

let validate ~loads ~domains (cfg : Load_gen.config) =
  if loads = [] then Error "Sweep: empty load list"
  else if List.exists (fun l -> not (l > 0.0)) loads then Error "Sweep: loads must be > 0"
  else if domains < 1 then Error "Sweep: domains must be >= 1"
  else if use_sharded ~domains cfg then Shard_gen.validate cfg
  else Load_gen.validate cfg

let over ?probe ?(domains = 1) ?(loads = default_loads) (cfg : Load_gen.config) =
  (match validate ~loads ~domains cfg with
  | Error msg -> raise (Invalid_config msg)
  | Ok () -> ());
  let sharded = use_sharded ~domains cfg in
  (* per-source capacity: one initiation every [send_cycles]; a load
     fraction maps to that share of the capacity rate *)
  let send_cycles = Load_gen.calibrate ~msg_bytes:cfg.msg_bytes () in
  let points =
    List.map
      (fun load ->
        let per_kcycle = load *. 1000.0 /. float_of_int send_cycles in
        let cfg = { cfg with Load_gen.arrival = Arrival.Poisson { per_kcycle } } in
        let result =
          if sharded then Shard_gen.run ~domains ~send_cycles cfg
          else Load_gen.run ?probe cfg
        in
        { load; result })
      loads
  in
  let knee_index = detect_knee points in
  {
    send_cycles;
    points;
    knee_index;
    knee_load =
      Option.map (fun i -> (List.nth points i).load) knee_index;
  }

let run ?loads ?probe ?(nodes = 16) ?(pattern = Pattern.Uniform)
    ?(msg_bytes = 256) ?(warmup_cycles = 2_000) ?(window_cycles = 50_000)
    ?(link_contention = true) ?(routing = `Dimension_order)
    ?(link_per_word = Load_gen.default_config.Load_gen.link_per_word)
    ?(vc_count = Load_gen.default_config.Load_gen.vc_count)
    ?(rx_credits = Load_gen.default_config.Load_gen.rx_credits)
    ?(crossing = Load_gen.default_config.Load_gen.crossing)
    ?(flit_words = Load_gen.default_config.Load_gen.flit_words)
    ?(seed = 42) ?domains () =
  over ?probe ?domains ?loads
    {
      Load_gen.default_config with
      nodes; pattern; msg_bytes; warmup_cycles; window_cycles; link_contention;
      routing; link_per_word; vc_count; rx_credits; crossing; flit_words; seed;
    }
