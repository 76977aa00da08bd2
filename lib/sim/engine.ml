module Profiler = Udma_obs.Profiler
module Metrics = Udma_obs.Metrics

(* Boundaries (DESIGN §9): seqs reserved at future cycles, each
   standing for an uncategorised event that does nothing. [log] holds
   every boundary as a (cycle, seq) pair, [log_n] of them, in the order
   they were reserved, until compacting finds it passed; it answers how
   many are still to pass. The cycles from [swept] to
   [swept + window - 1] have a slot each, [cycle land (window - 1)]:
   bit [slot] of [bits] marks a cycle a boundary was reserved at, and
   [slots] holds the smallest seq reserved there. Bits stay set after
   their cycle passes, until [swept] moves past it, so a set bit names
   one cycle; scans read them only from the clock on. Boundaries past
   the slots wait in [far], ordered by (cycle, seq): its key is the
   seq, and so is its tag. [latest] is the largest cycle a boundary was
   ever reserved at. *)
type calendar = {
  mutable swept : int;
  bits : int array;
  slots : int array;
  mutable log : int array;
  mutable log_n : int;
  mutable latest : int;
  far : unit Eventq.t;
}

type t = {
  mutable clock : int;
  mutable at : int;
      (* where in the clock's cycle the engine stands: the seq of the
         event now firing, or where the last pump stopped *)
  mutable b_next : int;
      (* no boundary still to pass lies before this cycle; max_int when
         none is left *)
  mutable cal : calendar;  (* [no_calendar] until the first boundary *)
  mhz : int;
  queue : event Eventq.t;
  mutable horizon : int;  (* the running pump's target; min_int outside *)
  mutable backlog : int;  (* lane firings not yet in [queue] *)
  mutable scheduled : int;  (* every schedule and lane post so far *)
  profiler : Profiler.t;
  metrics : Metrics.t;
}

and event = t -> unit

let window = 2048

(* Every calendar index below is a slot ([land (window - 1)]), a word
   of [bits], a pair of the log below [log_n] or a de Bruijn table
   entry (five bits), in bounds by construction. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let no_calendar =
  { swept = 0; bits = [||]; slots = [||]; log = [||]; log_n = 0; latest = 0;
    far = Eventq.create () }

(* Whether an event of key 0 at [time] under [seq] has fired: it is
   ordered before the engine's position. *)
let[@inline] passed t ~time ~seq = time < t.clock || (time = t.clock && seq < t.at)

(* The lowest and highest set bits of a nonzero 32-bit word, by de
   Bruijn multiplies: isolate the lowest bit, or smear the highest
   down, and a multiply leaves a distinct pattern in the top five
   bits. *)
let lowest_of =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23; 21; 19;
     16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let highest_of =
  [| 0; 9; 1; 10; 13; 21; 2; 29; 11; 14; 16; 18; 22; 25; 3; 30; 8; 12; 20; 28; 15; 17;
     24; 7; 19; 27; 23; 6; 26; 5; 4; 31 |]

let[@inline] lowest w = lowest_of.!((((w land -w) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let[@inline] highest w =
  let w = w lor (w lsr 1) in
  let w = w lor (w lsr 2) in
  let w = w lor (w lsr 4) in
  let w = w lor (w lsr 8) in
  let w = w lor (w lsr 16) in
  highest_of.!(((w * 0x07C4ACDD) land 0xFFFFFFFF) lsr 27)

(* Clear the bits of cycles [swept .. upto - 1], all passed, and move
   [swept] to [upto]. *)
let sweep_to c upto =
  if upto - c.swept >= window then Array.fill c.bits 0 (window / 32) 0
  else begin
    let x = ref c.swept in
    while !x < upto do
      let s = !x land (window - 1) in
      let n = Int.min (32 - (s land 31)) (upto - !x) in
      (* the [n] bits from [s land 31] up *)
      let mask = ((1 lsl n) - 1) lsl (s land 31) in
      c.bits.!(s lsr 5) <- c.bits.!(s lsr 5) land lnot mask;
      x := !x + n
    done
  end;
  c.swept <- upto

(* Pop the far boundaries ordered before ([time], [seq]); the cycle of
   the last, or min_int. *)
let drop_far c ~time ~seq =
  let far = c.far and last = ref min_int in
  while
    (not (Eventq.is_empty far))
    && (Eventq.min_time far < time
       || (Eventq.min_time far = time && Eventq.min_tag far < seq))
  do
    last := Eventq.min_time far;
    Eventq.pop_payload far
  done;
  !last

(* Keep the log's pairs not yet passed, and the far ones; the
   number in the log. *)
let compact_log t =
  let c = t.cal and n = ref 0 in
  ignore (drop_far c ~time:t.clock ~seq:t.at);
  for i = 0 to c.log_n - 1 do
    let time = c.log.!(2 * i) and seq = c.log.!((2 * i) + 1) in
    if not (passed t ~time ~seq) then begin
      c.log.!(2 * !n) <- time;
      c.log.!((2 * !n) + 1) <- seq;
      incr n
    end
  done;
  c.log_n <- !n;
  !n

(* The latest boundary ordered before the event at ([time], [seq])
   about to fire and after the clock, or min_int: one at [time] if the
   smallest seq there is before [seq], else the highest set bit in
   (clock, time). Every boundary before [time] is then passed. *)
let latest_before t ~time ~seq =
  let c = t.cal and clock = t.clock in
  let found = ref (drop_far c ~time ~seq) in
  let s = time land (window - 1) in
  if time < c.swept + window
     && c.bits.!(s lsr 5) land (1 lsl (s land 31)) <> 0
     && c.slots.!(s) < seq
  then found := time
  else begin
    let x = ref (Int.min (time - 1) (c.swept + window - 1)) in
    while !x > clock do
      let s = !x land (window - 1) in
      let base = !x - (s land 31) in
      let w = c.bits.!(s lsr 5) land ((2 lsl (s land 31)) - 1) in
      let w = if base <= clock then w land (-1 lsl (clock + 1 - base)) else w in
      if w = 0 then x := base - 1
      else begin
        let b = base + highest w in
        if b > !found then found := b;
        x := min_int
      end
    done
  end;
  t.b_next <- time;
  !found

(* Whether a boundary at the clock's cycle is still ahead. *)
let at_clock t =
  let c = t.cal and found = ref false and i = ref 0 in
  while (not !found) && !i < c.log_n do
    found := c.log.!(2 * !i) = t.clock && c.log.!((2 * !i) + 1) >= t.at;
    incr i
  done;
  !found

(* The earliest boundary not yet passed, or max_int, left in [b_next]:
   the first far one, or the first set bit from the clock on. *)
let next_boundary t =
  if t.b_next < max_int then begin
    let c = t.cal and clock = t.clock in
    ignore (drop_far c ~time:clock ~seq:t.at);
    let found = ref (Eventq.min_time c.far) in
    let s = clock land (window - 1) in
    if clock < c.swept + window
       && c.bits.!(s lsr 5) land (1 lsl (s land 31)) <> 0
       && at_clock t
    then found := clock
    else begin
      let x = ref (clock + 1) and stop = Int.min !found (c.swept + window) in
      while !x < stop do
        let s = !x land (window - 1) in
        let w = c.bits.!(s lsr 5) lsr (s land 31) in
        if w = 0 then x := !x + 32 - (s land 31)
        else begin
          if !x + lowest w < stop then found := !x + lowest w;
          x := stop
        end
      done
    end;
    t.b_next <- !found
  end;
  t.b_next

(* The boundaries not yet passed. *)
let pending_boundaries t =
  if t.b_next = max_int then 0
  else begin
    let n = compact_log t in
    if n = 0 then t.b_next <- max_int;
    n
  end

let pending_events t = Eventq.length t.queue + t.backlog + pending_boundaries t

(* The engine counts one thing, in a plain field: [scheduled]. Every
   scheduled event has fired or is still in the queue or a lane
   ([step_to] and boundaries count in neither), so
   [engine.events_fired] is scheduled - queued. Both reach
   the registry on read, as the deltas since the last read; a zero delta
   publishes nothing, so each name appears exactly when an eager bump
   would have made it. *)
let publish_counts t =
  let counter = Metrics.counter t.metrics and said = [| 0; 0 |] in
  let scheduled = counter "engine.scheduled"
  and fired = counter "engine.events_fired" in
  let publish i c count =
    if count > said.(i) then Metrics.bump_by c (count - said.(i));
    said.(i) <- count
  in
  fun () ->
    publish 0 scheduled t.scheduled;
    publish 1 fired (t.scheduled - Eventq.length t.queue - t.backlog)

let create ?(mhz = 120) () =
  if mhz <= 0 then invalid_arg "Engine.create: mhz must be positive";
  let t =
    { clock = 0; at = 0; b_next = max_int; cal = no_calendar; mhz;
      queue = Eventq.create (); horizon = min_int; backlog = 0;
      scheduled = 0; profiler = Profiler.create (); metrics = Metrics.create () }
  in
  Metrics.on_read t.metrics (publish_counts t);
  t

let now t = t.clock

let profiler t = t.profiler

let profile t = Profiler.snapshot t.profiler

let metrics t = t.metrics

let ns_of_cycles t c = float_of_int c *. 1000.0 /. float_of_int t.mhz

let us_of_cycles t c = ns_of_cycles t c /. 1000.0

(* Every clock mutation funnels through here, charging the elapsed
   cycles to [cat] (or the profiler's current category). This is what
   makes "category totals sum to Engine.now" hold by construction. *)
let[@inline] tick t ?cat time =
  if time > t.clock then begin
    Profiler.charge t.profiler ?cat (time - t.clock);
    t.clock <- time
  end

(* An event's category travels as its queue tag: 0 for none,
   [1 + Profiler.index c] for [Some c]. The way back goes through a
   static table of preallocated options, so neither direction
   allocates. *)
let cat_of_tag =
  Array.of_list (None :: List.map Option.some Profiler.categories)

let tag_of_cat = function None -> 0 | Some c -> 1 + Profiler.index c

let[@inline] push t ~time ~key ~tag ev =
  t.scheduled <- t.scheduled + 1;
  Eventq.add t.queue ~time:(Int.max time t.clock) ~key ~tag ev

let[@inline] schedule_keyed t ~key ~time ev = push t ~time ~key ~tag:0 ev

let schedule_at t ?cat ~time ev = push t ~time ~key:0 ~tag:(tag_of_cat cat) ev

let schedule t ?cat ~delay ev =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  push t ~time:(t.clock + delay) ~key:0 ~tag:(tag_of_cat cat) ev

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
  let l =
    { engine = t; tag = tag_of_cat cat; ev; fire = ev; ring = [||]; head = 0;
      len = 0; last = -1 }
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
  t.scheduled <- t.scheduled + 1;
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

let boundary t ~time =
  let time = Int.max time t.clock in
  let seq = Eventq.reserve t.queue in
  if t.cal == no_calendar then
    t.cal <-
      { swept = t.clock; bits = Array.make (window / 32) 0; slots = Array.make window 0;
        log = Array.make 128 0; log_n = 0; latest = time; far = Eventq.create () };
  let c = t.cal in
  (* the log doubles only when compacting leaves it more than half full *)
  if 2 * c.log_n = Array.length c.log && 4 * compact_log t > Array.length c.log then
    c.log <- Array.append c.log (Array.make (Array.length c.log) 0);
  c.log.!(2 * c.log_n) <- time;
  c.log.!((2 * c.log_n) + 1) <- seq;
  c.log_n <- c.log_n + 1;
  if time >= c.swept + window && t.clock > c.swept then sweep_to c t.clock;
  if time < c.swept + window then begin
    let s = time land (window - 1) in
    let bit = 1 lsl (s land 31) in
    if c.bits.!(s lsr 5) land bit = 0 then begin
      c.bits.!(s lsr 5) <- c.bits.!(s lsr 5) lor bit;
      c.slots.!(s) <- seq
    end
  end
  else Eventq.add c.far ~time ~key:seq ~tag:seq ();
  if time > c.latest then c.latest <- time;
  if time < t.b_next then t.b_next <- time;
  seq

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
   whoever was polling), save what lies up to the latest boundary
   ordered before it: the no-op event the boundary stands for would
   have charged that to the current category. The caller checks the
   queue is not empty. *)
let[@inline] fire_next t =
  let q = t.queue in
  let time = Eventq.min_time q and tag = Eventq.min_tag q in
  (* Until the first boundary the position is left where the last pump
     stopped: every seq reserved from then on lies at or after it, so
     no boundary reads as passed early. *)
  if t.cal != no_calendar then begin
    let seq = Eventq.min_seq q in
    if t.b_next <= time && tag <> 0 then begin
      let b = latest_before t ~time ~seq in
      if b > t.clock then tick t b
    end;
    t.at <- seq
  end;
  let ev = Eventq.pop_payload q in
  tick t ?cat:cat_of_tag.(tag) time;
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
   when nothing is due at or before [time], a boundary included, and
   the running pump would still fire it; firing it then only moves the
   clock through [tick], which is all this does. No boundary stands at
   [time], and any reserved later is ordered after that event: the
   position is the cycle's start. *)
let step_to t time =
  if time <= t.horizon && Eventq.min_time t.queue > time && next_boundary t > time
  then begin
    if time > t.clock then begin
      tick t time;
      t.at <- 0
    end;
    true
  end
  else false

(* Every event due by [time] has fired, and every boundary reserved so
   far at [time] or before counts as passed; unless an event's nested
   advance took the clock past [time], where that advance left the
   position. *)
let run_until t time =
  if time > t.clock then begin
    pump t time;
    if time >= t.clock then begin
      tick t time;
      t.at <- Eventq.next_seq t.queue
    end
  end

(* [run_until (time - 1)] would not do: it fires nothing when the
   clock is already at [time - 1], even with an event due there. The
   engine stops at the start of [time]: nothing due there has fired. *)
let run_before t time =
  if Eventq.min_time t.queue < time then pump t (time - 1);
  if time > t.clock then begin
    tick t time;
    t.at <- 0
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

let[@inline] next_event_time t =
  let q = Eventq.min_time t.queue in
  if t.b_next >= q then q else Int.min q (next_boundary t)

(* The boundaries still pending all lie after the last event; their
   no-op events would have moved the clock to the latest. *)
let run_until_idle t =
  pump t max_int;
  if pending_boundaries t > 0 then tick t t.cal.latest;
  t.at <- Eventq.next_seq t.queue

let wait_for t ?(poll_cost = 2) ?(max_polls = 10_000_000) cond =
  let polls = ref 0 in
  while not (cond ()) do
    if !polls >= max_polls then
      failwith "Engine.wait_for: poll budget exhausted";
    if Eventq.is_empty t.queue && pending_boundaries t = 0 then
      failwith "Engine.wait_for: condition can never become true (idle)";
    (* Jump straight to the next event when polling would only spin
       through empty cycles; the clock ends at the same place as if
       every intermediate poll had been simulated. *)
    let next = next_event_time t in
    if t.clock + poll_cost < next then run_until t next
    else advance t poll_cost;
    incr polls
  done;
  !polls
