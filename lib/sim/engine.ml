module Profiler = Udma_obs.Profiler
module Metrics = Udma_obs.Metrics

type t = {
  mutable clock : int;
  mhz : int;
  queue : event Eventq.t;
  mutable horizon : int;  (* the running pump's target; min_int outside *)
  mutable backlog : int;  (* lane firings not yet in [queue] *)
  profiler : Profiler.t;
  metrics : Metrics.t;
  scheduled : Metrics.counter;
  fired : Metrics.counter;
}

and event = t -> unit

let create ?(mhz = 120) () =
  if mhz <= 0 then invalid_arg "Engine.create: mhz must be positive";
  let metrics = Metrics.create () in
  {
    clock = 0;
    mhz;
    queue = Eventq.create ();
    horizon = min_int;
    backlog = 0;
    profiler = Profiler.create ();
    metrics;
    scheduled = Metrics.counter metrics "engine.scheduled";
    fired = Metrics.counter metrics "engine.events_fired";
  }

let now t = t.clock

let profiler t = t.profiler

let profile t = Profiler.snapshot t.profiler

let metrics t = t.metrics

let ns_of_cycles t c = float_of_int c *. 1000.0 /. float_of_int t.mhz

let us_of_cycles t c = ns_of_cycles t c /. 1000.0

(* Every clock mutation funnels through here, charging the elapsed
   cycles to [cat] (or the profiler's current category). This is what
   makes "category totals sum to Engine.now" hold by construction. *)
let tick t ?cat time =
  if time > t.clock then begin
    Profiler.charge t.profiler ?cat (time - t.clock);
    t.clock <- time
  end

(* An event's category travels as its queue tag: 0 for none,
   [1 + Profiler.index c] for [Some c]. Both directions go through
   static tables of preallocated options, so neither allocates. *)
let cat_of_tag =
  Array.of_list (None :: List.map Option.some Profiler.categories)

let tag_opts = Array.init (Array.length cat_of_tag) Option.some

let tag_of_cat = function
  | None -> None
  | Some c -> tag_opts.(1 + Profiler.index c)

let schedule t ?cat ~delay ev =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  Metrics.bump t.scheduled;
  Eventq.push t.queue ~time:(t.clock + delay) ?tag:(tag_of_cat cat) ev

let schedule_at t ?cat ~time ev =
  let time = Int.max time t.clock in
  Metrics.bump t.scheduled;
  Eventq.push t.queue ~time ?tag:(tag_of_cat cat) ev

(* A lane's firings are the one queued with [fire] as its payload and,
   after it, the [len] pairs (time, reserved seq) in [ring] from pair
   [head] on (the ring holds a power of two of pairs). [last] is the
   latest of their times, or -1 while the lane has no queued firing.
   Times never decrease along the lane, and seqs increase since each
   was reserved later. The record keeps to eight fields on purpose:
   OCaml 5 gives each object size class its own 32 KB heap pool, and a
   larger record opened a new one (DESIGN §16). *)
type lane = {
  engine : t;
  tag : int;
  ev : event;
  mutable fire : event;
  mutable ring : int array;
  mutable head : int;
  mutable len : int;
  mutable last : int;
}

(* The lane's queued firing pops. Its successor is ordered after it, so
   anything ordered after the successor is too, and cannot pop before
   the successor enters the queue here, before [ev] runs. *)
let fire_lane l t =
  if l.len = 0 then l.last <- -1
  else begin
    let i = l.head in
    Eventq.push_reserved t.queue ~time:l.ring.(2 * i) ~seq:l.ring.((2 * i) + 1)
      ~tag:l.tag l.fire;
    l.head <- (i + 1) land ((Array.length l.ring / 2) - 1);
    l.len <- l.len - 1;
    t.backlog <- t.backlog - 1
  end;
  l.ev t

let lane t ?cat ev =
  let tag = Option.value (tag_of_cat cat) ~default:0 in
  let l =
    { engine = t; tag; ev; fire = ev; ring = [||]; head = 0; len = 0;
      last = -1 }
  in
  l.fire <- fire_lane l;
  l

(* Double the ring, unwrapping it to start at pair 0. *)
let grow_lane l =
  let cap = Array.length l.ring / 2 in
  let ring = Array.make (2 * Int.max 8 (2 * cap)) 0 in
  for j = 0 to l.len - 1 do
    let k = (l.head + j) land (cap - 1) in
    ring.(2 * j) <- l.ring.(2 * k);
    ring.((2 * j) + 1) <- l.ring.((2 * k) + 1)
  done;
  l.ring <- ring;
  l.head <- 0

let lane_last l = l.last

let lane_at l ~time =
  let t = l.engine in
  let time = Int.max time t.clock in
  Metrics.bump t.scheduled;
  let seq = Eventq.reserve t.queue in
  if l.last < 0 then begin
    l.last <- time;
    Eventq.push_reserved t.queue ~time ~seq ~tag:l.tag l.fire
  end
  else if time >= l.last then begin
    if l.len = Array.length l.ring / 2 then grow_lane l;
    let i = (l.head + l.len) land ((Array.length l.ring / 2) - 1) in
    l.ring.(2 * i) <- time;
    l.ring.((2 * i) + 1) <- seq;
    l.len <- l.len + 1;
    l.last <- time;
    t.backlog <- t.backlog + 1
  end
  else
    (* Earlier than the lane's last firing: an ordinary event. *)
    Eventq.push_reserved t.queue ~time ~seq ~tag:l.tag l.ev

let with_category t cat f =
  let prev = Profiler.current t.profiler in
  Profiler.set_current t.profiler cat;
  match f () with
  | v ->
      Profiler.set_current t.profiler prev;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Profiler.set_current t.profiler prev;
      Printexc.raise_with_backtrace e bt

(* Pop the earliest event and run it at its own timestamp. The gap up
   to the event is charged to the event's category when it carries one
   (a DMA burst completing attributes the burst cycles to Dma, not to
   whoever was polling). The caller checks the queue is not empty. *)
let fire_next t =
  let time = Eventq.min_time t.queue in
  let cat = cat_of_tag.(Eventq.min_tag t.queue) in
  let ev = Eventq.pop_payload t.queue in
  tick t ?cat time;
  Metrics.bump t.fired;
  ev t

(* Fire every event due at or before [horizon], letting fired events
   schedule more work inside the window. [is_empty] guards the pop:
   [min_time]'s empty sentinel [max_int] is itself a valid horizon.
   The horizon is published for {!step_to} while the loop runs and the
   enclosing pump's is restored afterwards, also when an event
   raises. *)
let pump t horizon =
  let outer = t.horizon in
  t.horizon <- horizon;
  match
    while
      (not (Eventq.is_empty t.queue)) && Eventq.min_time t.queue <= horizon
    do
      fire_next t
    done
  with
  | () -> t.horizon <- outer
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.horizon <- outer;
      Printexc.raise_with_backtrace e bt

(* An uncategorised event at [time] would be the next to fire exactly
   when nothing is due at or before [time] and the running pump would
   still fire it; firing it then only moves the clock through [tick],
   which is all this does. *)
let step_to t time =
  if time <= t.horizon && Eventq.min_time t.queue > time then begin
    tick t time;
    true
  end
  else false

let run_until t time =
  if time > t.clock then begin
    pump t time;
    tick t time
  end

let advance t cost =
  if cost < 0 then invalid_arg "Engine.advance: negative cost";
  run_until t (t.clock + cost)

(* [with_category] for a plain advance, without the closure: the
   per-reference charge of every user load and store goes through it. *)
let advance_in t cat cost =
  let prev = Profiler.current t.profiler in
  Profiler.set_current t.profiler cat;
  match advance t cost with
  | () -> Profiler.set_current t.profiler prev
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Profiler.set_current t.profiler prev;
      Printexc.raise_with_backtrace e bt

let next_event_time t = Eventq.min_time t.queue

let run_until_idle t = pump t max_int

let pending_events t = Eventq.length t.queue + t.backlog

let wait_for t ?(poll_cost = 2) ?(max_polls = 10_000_000) cond =
  let polls = ref 0 in
  while not (cond ()) do
    if !polls >= max_polls then
      failwith "Engine.wait_for: poll budget exhausted";
    if Eventq.is_empty t.queue then
      failwith "Engine.wait_for: condition can never become true (idle)";
    (* Jump straight to the next event when polling would only spin
       through empty cycles; the clock ends at the same place as if
       every intermediate poll had been simulated. *)
    let next = Eventq.min_time t.queue in
    if t.clock + poll_cost < next then run_until t next
    else advance t poll_cost;
    incr polls
  done;
  !polls
