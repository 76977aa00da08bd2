module Engine = Udma_sim.Engine
module Rng = Udma_sim.Rng
module Shard = Udma_sim.Shard
module Router = Udma_shrimp.Router

(* Sharded counterpart of {!Load_gen}: the same open-loop service-model
   workload, rebuilt hop-granularly on the conservative {!Shard}
   kernel so it parallelises across OCaml domains and scales past the
   legacy 64-node cap (up to 32×32).

   Topology: one shard per mesh row. Under dimension-order routing a
   packet walks X first (links within one row) and then Y (links
   between adjacent rows), so every cross-shard edge carries at least
   one hop of wire latency — [per_hop_cycles] is the natural
   conservative lookahead. The legacy router instead claims a packet's
   whole path atomically at send time against global link state, which
   is exactly what cannot be sharded; here each link claim is its own
   event at the link's owning shard, so contention is resolved in
   event order per link. The two models agree on uncontended latency
   (both telescope to base + hops·per_hop + words·per_word) but
   resolve contention differently, so sharded results are pinned
   separately (E17's golden digest) rather than against the legacy
   knees.

   Determinism: per-node RNG streams come from {!Rng.substream} (and
   draws use the unbiased reduction), so they depend only on
   (seed, node); everything else is per-shard state plus the kernel's
   partition-independent merge. Results are byte-identical for every
   [domains] value. *)

type kernel_stats = {
  events : int;  (** events executed across all shards *)
  windows : int;  (** conservative windows (barrier rounds) *)
  cross_posts : int;  (** cross-shard messages during the run *)
  shards : int;
}

let max_nodes = 1024

(* Cost model shared with the legacy router. *)
let base_cycles = Router.default_config.Router.base_cycles
let per_hop_cycles = Router.default_config.Router.per_hop_cycles

(* The node cap and the supported subset are the sharded engine's own;
   the workload limits are {!Load_gen}'s. *)
let validate (cfg : Load_gen.config) =
  if cfg.nodes < 2 || cfg.nodes > max_nodes then
    Error (Printf.sprintf "Shard_gen: nodes must be in 2..%d" max_nodes)
  else if not (Router.valid_nodes cfg.nodes) then
    Error "Shard_gen: nodes must fill complete mesh rows (16, 64, 256, 1024, ...)"
  else if cfg.routing = `Minimal_adaptive then
    Error
      "Shard_gen: the sharded engine supports dimension-order routing only \
       (adaptive choice reads remote link state mid-walk)"
  else if cfg.vc_count <> 1 then
    Error "Shard_gen: the sharded engine supports a single VC per link"
  else if cfg.rx_credits <> None then
    Error
      "Shard_gen: the sharded engine does not model finite rx credits (the \
       injection gate reads remote deposit state)"
  else if cfg.crossing <> `Analytic then
    Error
      "Shard_gen: the sharded engine has no cycle-level wire model; the flit \
       crossing runs on the legacy engine"
  else if not (Arrival.open_loop cfg.arrival) then
    Error
      "Shard_gen: closed-loop arrivals need sub-lookahead delivery feedback; \
       use the legacy engine"
  else Load_gen.validate_workload cfg

(* One directed mesh link, owned by the shard of its source node.

   Occupancy is settled at the link's next claim, never by an event of
   its own. [fifo] holds the claims still on the wire, oldest first, as
   (release time, packet id) pairs: a ring of [Array.length fifo / 2]
   slots (a power of two) starting at slot [head]. Each claim starts no
   earlier than the previous claim's release and occupies the wire for
   at least one cycle, so release times strictly increase along the
   ring. *)
type link = {
  l_from : int;
  l_to : int;
  mutable fifo : int array;
  mutable head : int;
  mutable depth : int;  (* claims in [fifo]: the link's occupancy *)
  mutable max_depth : int;
  mutable xmits : int;
  mutable busy_cycles : int;
  mutable wait_cycles : int;
}

(* Drop every claim whose release the kernel's (time, key) order would
   have run before a claim at [now] with key [pid], had each release
   been an event at (release time, its packet's id): since release
   times increase, exactly the front entries below (now, pid). *)
let rec settle l ~now ~pid =
  if l.depth > 0 then begin
    let i = 2 * l.head in
    let rt = l.fifo.(i) in
    if rt < now || (rt = now && l.fifo.(i + 1) < pid) then begin
      l.head <- (l.head + 1) land ((Array.length l.fifo / 2) - 1);
      l.depth <- l.depth - 1;
      settle l ~now ~pid
    end
  end

(* Claim the wire for [occ] cycles from when it frees: the last
   outstanding release, or [now] when none is outstanding. Settling
   leaves only releases at or after [now]. Returns the start. *)
let claim l ~now ~pid ~occ =
  settle l ~now ~pid;
  let slots = Array.length l.fifo / 2 in
  if l.depth = slots then begin
    let grown = Array.make (4 * slots) 0 in
    for j = 0 to slots - 1 do
      let i = 2 * ((l.head + j) land (slots - 1)) in
      grown.(2 * j) <- l.fifo.(i);
      grown.((2 * j) + 1) <- l.fifo.(i + 1)
    done;
    l.fifo <- grown;
    l.head <- 0
  end;
  let mask = (Array.length l.fifo / 2) - 1 in
  let start =
    if l.depth = 0 then now else l.fifo.(2 * ((l.head + l.depth - 1) land mask))
  in
  let i = 2 * ((l.head + l.depth) land mask) in
  l.fifo.(i) <- start + occ;
  l.fifo.(i + 1) <- pid;
  l.depth <- l.depth + 1;
  if l.depth > l.max_depth then l.max_depth <- l.depth;
  start

(* Per-shard accumulators: each record is touched only by its owning
   shard while the kernel runs, so no synchronisation is needed. *)
type shard_stats = {
  mutable injected : int;
  mutable launched : int;
  mutable delivered : int;
  mutable lats : int array;  (* the first [n_lats] are the latencies *)
  mutable n_lats : int;
  last_arrival : int array array;
      (* the clamp for pairs into this shard's row: row [src], indexed
         by the destination's column, is allocated on [src]'s first
         delivery here and holds -1 for a pair with none yet *)
}

type source = {
  src : int;
  rng : Rng.t;
  q : (int * int) Queue.t; (* (dst, born) in arrival order *)
  mutable serving : bool;
  mutable next_pid : int;
}

(* Packet ids key every walk and delivery event, ordering same-cycle
   events of different packets at a merge; they only need to be unique
   and deterministic. They start at 1: key 0 belongs to the arrival
   and launch events alone, so no walk event ties with one on (time,
   key) and falls back to push order, which depends on where the
   windows fall. *)
let pid_stride = 1 lsl 20

let run_stats ?(domains = 1) ?send_cycles (cfg : Load_gen.config) =
  Result.iter_error invalid_arg (validate cfg);
  if domains < 1 then invalid_arg "Shard_gen: domains must be >= 1";
  let send_cycles =
    match send_cycles with
    | Some c -> c
    | None -> Load_gen.calibrate ~msg_bytes:cfg.msg_bytes ()
  in
  let nodes = cfg.nodes in
  let width = Router.mesh_width nodes in
  let rows = nodes / width in
  let words = (cfg.msg_bytes + 3) / 4 in
  let occ = words * cfg.link_per_word in
  let k = Shard.create ~lookahead:per_hop_cycles ~shards:rows () in
  let row_of node = node / width in
  let node_id ~x ~y = x + (y * width) in
  let measure_start = cfg.warmup_cycles in
  let t_end = cfg.warmup_cycles + cfg.window_cycles in
  (* directed links encoded node*4 + direction (+x, -x, +y, -y) *)
  let links = Array.make (nodes * 4) None in
  let link_for a b =
    let dir =
      if b = a + 1 then 0
      else if b = a - 1 then 1
      else if b = a + width then 2
      else 3
    in
    let i = (a * 4) + dir in
    match links.(i) with
    | Some l -> l
    | None ->
        let l =
          { l_from = a; l_to = b; fifo = Array.make 8 0; head = 0; depth = 0;
            max_depth = 0; xmits = 0; busy_cycles = 0; wait_cycles = 0 }
        in
        links.(i) <- Some l;
        l
  in
  let stats =
    Array.init rows (fun _ ->
        { injected = 0; launched = 0; delivered = 0; lats = [||]; n_lats = 0;
          last_arrival = Array.make nodes [||] })
  in
  let deliver ~psrc ~pdst ~born e =
    let st = stats.(row_of pdst) in
    let now = Engine.now e in
    (* per-pair in-order clamp, as the legacy router's [last_arrival]:
       a no-op under dimension-order + FIFO links, kept as the stated
       guarantee *)
    if Array.length st.last_arrival.(psrc) = 0 then
      st.last_arrival.(psrc) <- Array.make width (-1);
    let row = st.last_arrival.(psrc) and col = pdst mod width in
    let at = Int.max now (row.(col) + 1) in
    row.(col) <- at;
    if born >= measure_start && at < t_end then begin
      st.delivered <- st.delivered + 1;
      if st.n_lats = Array.length st.lats then begin
        let grown = Array.make (Int.max 64 (2 * st.n_lats)) 0 in
        Array.blit st.lats 0 grown 0 st.n_lats;
        st.lats <- grown
      end;
      st.lats.(st.n_lats) <- at - born;
      st.n_lats <- st.n_lats + 1
    end
  in
  (* Header walk: each link claim is one event at the link owner's
     shard, firing when the header reaches the link entrance. With an
     idle mesh this telescopes to base + hops·per_hop + words·per_word,
     the legacy closed form. *)
  let rec hop ~x ~y ~pid ~psrc ~pdst ~born ~head =
    let dx = pdst mod width and dy = pdst / width in
    let a = node_id ~x ~y in
    let step v goal = if v < goal then v + 1 else v - 1 in
    let x', y' = if x <> dx then (step x dx, y) else (x, step y dy) in
    let b = node_id ~x:x' ~y:y' in
    let l = link_for a b in
    let start = claim l ~now:head ~pid ~occ in
    let wait = start - head in
    if wait > 0 then l.wait_cycles <- l.wait_cycles + wait;
    l.xmits <- l.xmits + 1;
    l.busy_cycles <- l.busy_cycles + occ;
    if b = pdst then
      Shard.post k ~src:y ~dst:y' ~key:pid
        ~delay:(start + per_hop_cycles + occ - head)
        (deliver ~psrc ~pdst ~born)
    else
      Shard.post k ~src:y ~dst:y' ~key:pid
        ~delay:(start + per_hop_cycles - head)
        (fun _ ->
          hop ~x:x' ~y:y' ~pid ~psrc ~pdst ~born
            ~head:(start + per_hop_cycles))
  in
  let start_walk e ~pid ~psrc ~pdst ~born =
    let sy = psrc / width in
    let now = Engine.now e in
    if psrc = pdst then
      Engine.schedule_keyed e ~key:pid ~time:(now + base_cycles + occ)
        (deliver ~psrc ~pdst ~born)
    else if cfg.link_contention then
      Engine.schedule_keyed e ~key:pid ~time:(now + base_cycles) (fun _ ->
          hop ~x:(psrc mod width) ~y:sy ~pid ~psrc ~pdst ~born
            ~head:(now + base_cycles))
    else begin
      let hops =
        abs ((psrc mod width) - (pdst mod width)) + abs (sy - (pdst / width))
      in
      Shard.post k ~src:sy ~dst:(pdst / width) ~key:pid
        ~delay:(base_cycles + (hops * per_hop_cycles) + occ)
        (deliver ~psrc ~pdst ~born)
    end
  in
  (* service model: one initiation every [send_cycles] per source, as
     the legacy generator *)
  let rec pump (s : source) e =
    if (not s.serving) && not (Queue.is_empty s.q) then begin
      s.serving <- true;
      Engine.schedule e ~delay:send_cycles (launch s)
    end
  and launch (s : source) e =
    let dst, born = Queue.pop s.q in
    let pid = (s.src * pid_stride) + s.next_pid + 1 in
    s.next_pid <- s.next_pid + 1;
    stats.(row_of s.src).launched <- stats.(row_of s.src).launched + 1;
    start_walk e ~pid ~psrc:s.src ~pdst:dst ~born;
    s.serving <- false;
    pump s e
  in
  let sources =
    Array.init nodes (fun src ->
        { src; rng = Rng.substream cfg.seed src; q = Queue.create ();
          serving = false; next_pid = 0 })
  in
  let enqueue s e dst =
    let shard = row_of s.src in
    let now = Engine.now e in
    if now >= measure_start && now < t_end then
      stats.(shard).injected <- stats.(shard).injected + 1;
    Queue.push (dst, now) s.q;
    pump s e
  in
  let rec arrive s e time =
    if time < t_end then
      Engine.schedule_at e ~time (fun e ->
          (match
             Pattern.dest_unbiased cfg.pattern s.rng ~width ~nodes ~src:s.src
           with
          | Some dst -> enqueue s e dst
          | None -> ());
          arrive s e (Engine.now e + Arrival.next_gap cfg.arrival s.rng))
  in
  Array.iter
    (fun s ->
      arrive s
        (Shard.engine k ~shard:(row_of s.src))
        (Arrival.next_gap cfg.arrival s.rng))
    sources;
  Shard.run ~domains k;
  (* deterministic merge: sums, sorted latencies, links by (from, to) *)
  let injected = Array.fold_left (fun a st -> a + st.injected) 0 stats in
  let launched = Array.fold_left (fun a st -> a + st.launched) 0 stats in
  let delivered = Array.fold_left (fun a st -> a + st.delivered) 0 stats in
  let latencies =
    Array.concat (Array.to_list (Array.map (fun st -> Array.sub st.lats 0 st.n_lats) stats))
  in
  let links =
    Array.to_list links
    |> List.filter_map (fun l -> l)
    |> List.filter (fun l -> l.xmits > 0)
    |> List.sort (fun a b -> compare (a.l_from, a.l_to) (b.l_from, b.l_to))
    |> List.map (fun l ->
           { Router.from_node = l.l_from; to_node = l.l_to; xmits = l.xmits;
             busy_cycles = l.busy_cycles; wait_cycles = l.wait_cycles;
             max_depth = l.max_depth })
  in
  let result =
    Load_gen.summarize ~nodes ~width ~send_cycles
      ~window_cycles:cfg.window_cycles ~injected ~launched ~delivered
      ~latencies ~links ~credit_stalls:0 ~credit_stall_cycles:0
      ~flit_hol_cycles:0 ~flit_occupancy:[||]
  in
  ( result,
    {
      events = Shard.events_executed k;
      windows = Shard.windows_run k;
      cross_posts = Shard.messages_posted k;
      shards = rows;
    } )

let run ?domains ?send_cycles cfg = fst (run_stats ?domains ?send_cycles cfg)
