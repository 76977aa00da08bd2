module Engine = Udma_sim.Engine
module Rng = Udma_sim.Rng
module Metrics = Udma_obs.Metrics
module System = Udma_shrimp.System
module Router = Udma_shrimp.Router

type config = {
  nodes : int;
  pattern : Pattern.t;
  arrival : Arrival.t;
  msg_bytes : int;
  warmup_cycles : int;
  window_cycles : int;
  link_contention : bool;
  routing : Router.routing;
  link_per_word : int;
  vc_count : int;
  rx_credits : int option;
  crossing : Router.crossing;
  flit_words : int;
  seed : int;
}

let default_config =
  {
    nodes = 16;
    pattern = Pattern.Uniform;
    arrival = Arrival.Poisson { per_kcycle = 1.0 };
    msg_bytes = 256;
    warmup_cycles = 2_000;
    window_cycles = 50_000;
    link_contention = true;
    routing = `Dimension_order;
    link_per_word = Router.default_config.Router.per_word_cycles;
    vc_count = Router.default_config.Router.vc_count;
    rx_credits = Router.default_config.Router.rx_credits;
    crossing = Router.default_config.Router.crossing;
    flit_words = Router.default_config.Router.flit_words;
    seed = 42;
  }

type result = {
  nodes : int;
  width : int;
  send_cycles : int;
  window_cycles : int;
  injected : int;
  launched : int;
  delivered : int;
  offered_per_kcycle : float;
  delivered_per_kcycle : float;
  latencies : int array;
  mean_latency : float;
  p50_latency : int;
  p95_latency : int;
  p99_latency : int;
  max_latency : int;
  link_wait_cycles : int;
  link_max_depth : int;
  credit_stalls : int;
  credit_stall_cycles : int;
  links : Router.link_stat list;
  flit_hol_cycles : int;
  flit_occupancy : (float * int) array;
      (* per VC: (mean, max) buffered flits; [||] in analytic mode *)
}

let percentile_sorted = Metrics.nearest_rank

let summarize ~nodes ~width ~send_cycles ~window_cycles ~injected ~launched
    ~delivered ~latencies ~links ~credit_stalls ~credit_stall_cycles
    ~flit_hol_cycles ~flit_occupancy =
  Array.stable_sort Int.compare latencies;
  let n = Array.length latencies in
  let per_kcycle count =
    1000.0 *. float_of_int count /. float_of_int (window_cycles * nodes)
  in
  {
    nodes;
    width;
    send_cycles;
    window_cycles;
    injected;
    launched;
    delivered;
    offered_per_kcycle = per_kcycle injected;
    delivered_per_kcycle = per_kcycle delivered;
    latencies;
    mean_latency =
      (if n = 0 then 0.0
       else float_of_int (Array.fold_left ( + ) 0 latencies) /. float_of_int n);
    p50_latency = Metrics.nearest_rank latencies 50.0;
    p95_latency = Metrics.nearest_rank latencies 95.0;
    p99_latency = Metrics.nearest_rank latencies 99.0;
    max_latency = (if n = 0 then 0 else latencies.(n - 1));
    link_wait_cycles =
      List.fold_left (fun a (l : Router.link_stat) -> a + l.Router.wait_cycles) 0 links;
    link_max_depth =
      List.fold_left
        (fun a (l : Router.link_stat) -> Int.max a l.Router.max_depth)
        0 links;
    credit_stalls;
    credit_stall_cycles;
    links;
    flit_hol_cycles;
    flit_occupancy;
  }

let router_config (cfg : config) =
  { Router.default_config with
    Router.link_contention = cfg.link_contention;
    Router.routing = cfg.routing;
    Router.per_word_cycles = cfg.link_per_word;
    Router.vc_count = cfg.vc_count;
    Router.rx_credits = cfg.rx_credits;
    Router.crossing = cfg.crossing;
    Router.flit_words = cfg.flit_words }

(* The workload limits every generator engine shares. *)
let validate_workload (cfg : config) =
  if cfg.msg_bytes <= 0 || cfg.msg_bytes land 3 <> 0 || cfg.msg_bytes > 4092
  then Error "Load_gen: msg_bytes must be a positive 4-byte multiple <= 4092"
  else if cfg.link_per_word < 1 then Error "Load_gen: link_per_word must be >= 1"
  else if cfg.window_cycles <= 0 then Error "Load_gen: window_cycles must be positive"
  else if cfg.warmup_cycles < 0 then Error "Load_gen: warmup_cycles must be non-negative"
  else Arrival.validate cfg.arrival

(* The generator's own limits; the mesh shape, VCs, credits, flits and
   the crossing/routing combination are the router's to judge. *)
let validate (cfg : config) =
  if cfg.nodes < 2 || cfg.nodes > 64 then Error "Load_gen: nodes must be in 2..64"
  else if cfg.crossing = `Flit && not cfg.link_contention then
    (* without contention the router takes the closed form and no flit
       is simulated *)
    Error "Load_gen: the flit crossing needs link contention"
  else
    match validate_workload cfg with
    | Error _ as e -> e
    | Ok () -> Router.validate ~nodes:cfg.nodes (router_config cfg)

(* A default 2-node system: the router config Sweep plans its rates
   against, whatever mesh the run itself uses. *)
let calibrate ?(msg_bytes = default_config.msg_bytes) () =
  let fab =
    Fabric.attach (System.create ~nodes:2 ()) ~seed:default_config.seed
      ~pairs:[ (0, 1) ]
  in
  Fabric.calibrate_send fab ~nbytes:msg_bytes

let run ?probe (cfg : config) =
  Result.iter_error invalid_arg (validate cfg);
  let sys =
    System.create
      ~config:{ System.default_config with System.router = router_config cfg }
      ~nodes:cfg.nodes ()
  in
  (match probe with Some f -> f (System.engine sys) | None -> ());
  let engine = System.engine sys in
  let router = System.router sys in
  let width = Router.width router in
  let nodes = cfg.nodes in
  (* every (src, dst) the pattern can produce, src-major in support
     order, so each sender's NIPT/proxy indices run 0, 1, ... *)
  let pairs =
    List.concat_map
      (fun src ->
        List.map (fun dst -> (src, dst))
          (Pattern.support cfg.pattern ~width ~nodes ~src))
      (List.init nodes Fun.id)
  in
  if pairs = [] then
    invalid_arg "Load_gen: pattern generates no traffic on this mesh";
  let fab = Fabric.attach sys ~seed:cfg.seed ~pairs in
  let send_cycles = Fabric.calibrate_send fab ~nbytes:cfg.msg_bytes in
  let t0 = Engine.now engine in
  let measure_start = t0 + cfg.warmup_cycles in
  let t_end = measure_start + cfg.window_cycles in
  let em = Engine.metrics engine in
  let m_latency = Metrics.sampler em "traffic.latency_cycles"
  and m_delivered = Metrics.counter em "traffic.delivered"
  and m_injected = Metrics.counter em "traffic.injected" in
  let injected = ref 0 and delivered = ref 0 in
  let lat_acc = ref [] in
  (* One arrival: a message posted on [src]'s CPU at its calibrated
     cost. Latency runs from the arrival, so it includes source
     queueing — the quantity that blows up past saturation. [k] sees
     the delivery time. *)
  let send ~src dst k =
    let born = Engine.now engine in
    if born >= measure_start && born < t_end then begin
      incr injected;
      Metrics.bump m_injected
    end;
    Fabric.post fab ~src ~dst ~nbytes:cfg.msg_bytes ~cost:send_cycles
      ~on_deliver:(fun now ->
        if born >= measure_start && now < t_end then begin
          incr delivered;
          let lat = now - born in
          lat_acc := lat :: !lat_acc;
          Metrics.sample m_latency lat;
          Metrics.bump m_delivered
        end;
        k now)
      ()
  in
  let master = Rng.create cfg.seed in
  let rngs = Array.init nodes (fun _ -> Rng.split master) in
  let dest src = Pattern.dest cfg.pattern rngs.(src) ~width ~nodes ~src in
  (match cfg.arrival with
  | Arrival.Poisson _ | Arrival.Periodic _ ->
      let rec arrive src time =
        if time < t_end then
          Engine.schedule_at engine ~time (fun _ ->
              Option.iter (fun dst -> send ~src dst ignore) (dest src);
              arrive src
                (Engine.now engine + Arrival.next_gap cfg.arrival rngs.(src)))
      in
      for src = 0 to nodes - 1 do
        arrive src (t0 + Arrival.next_gap cfg.arrival rngs.(src))
      done
  | Arrival.Closed { clients; think_cycles } ->
      let rec client_turn src =
        if Engine.now engine < t_end then
          Option.iter
            (fun dst ->
              send ~src dst (fun delivered_at ->
                  Engine.schedule_at engine ~time:(delivered_at + think_cycles)
                    (fun _ -> client_turn src)))
            (dest src)
      in
      for c = 0 to clients - 1 do
        let src = c mod nodes in
        (* stagger first requests across one think interval *)
        Engine.schedule_at engine
          ~time:(t0 + Rng.int rngs.(src) (Int.max 1 think_cycles))
          (fun _ -> client_turn src)
      done);
  Fabric.run_until_idle fab;
  Router.publish_link_gauges router;
  (* a zero is left unpublished: bumping a name registers it *)
  let publish name n = if n > 0 then Metrics.add em name n in
  publish "traffic.launched" (Fabric.launched fab);
  publish "traffic.credit_stalls" (Fabric.credit_stalls fab);
  publish "traffic.credit_stall_cycles" (Fabric.credit_stall_cycles fab);
  summarize ~nodes ~width ~send_cycles ~window_cycles:cfg.window_cycles
    ~injected:!injected ~launched:(Fabric.launched fab) ~delivered:!delivered
    ~latencies:(Array.of_list !lat_acc) ~links:(Router.link_stats router)
    ~credit_stalls:(Fabric.credit_stalls fab)
    ~credit_stall_cycles:(Fabric.credit_stall_cycles fab)
    ~flit_hol_cycles:
      ((* fl_hol_cycles is a per-link counter repeated on each VC row *)
       List.fold_left
         (fun a (s : Router.flit_stat) ->
           if s.Router.fl_vc = 0 then a + s.Router.fl_hol_cycles else a)
         0
         (Router.flit_stats router))
    ~flit_occupancy:(Router.flit_vc_occupancy router)
