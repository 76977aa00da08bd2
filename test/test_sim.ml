(* Unit tests for the discrete-event simulation core. *)

module Eventq = Udma_sim.Eventq
module Engine = Udma_sim.Engine
module Rng = Udma_sim.Rng
module Trace = Udma_sim.Trace

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Eventq ---------- *)

let test_eventq_ordering () =
  let q = Eventq.create () in
  Eventq.push q ~time:30 "c";
  Eventq.push q ~time:10 "a";
  Eventq.push q ~time:20 "b";
  Alcotest.(check (option (pair int string))) "first" (Some (10, "a")) (Eventq.pop q);
  Alcotest.(check (option (pair int string))) "second" (Some (20, "b")) (Eventq.pop q);
  Alcotest.(check (option (pair int string))) "third" (Some (30, "c")) (Eventq.pop q);
  Alcotest.(check (option (pair int string))) "empty" None (Eventq.pop q)

let test_eventq_fifo_ties () =
  let q = Eventq.create () in
  List.iter (fun s -> Eventq.push q ~time:5 s) [ "1"; "2"; "3"; "4" ];
  let order = List.init 4 (fun _ -> snd (Option.get (Eventq.pop q))) in
  Alcotest.(check (list string)) "insertion order on equal times"
    [ "1"; "2"; "3"; "4" ] order

let test_eventq_growth () =
  let q = Eventq.create () in
  for i = 999 downto 0 do
    Eventq.push q ~time:i i
  done;
  checki "length" 1000 (Eventq.length q);
  let rec drain last n =
    match Eventq.pop q with
    | None -> n
    | Some (t, v) ->
        checkb "monotone" true (t >= last);
        checki "payload matches time" t v;
        drain t (n + 1)
  in
  checki "drained all" 1000 (drain (-1) 0)

let test_eventq_negative_time () =
  let q = Eventq.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Eventq.push: negative time") (fun () ->
      Eventq.push q ~time:(-1) ())

let test_eventq_clear () =
  let q = Eventq.create () in
  Eventq.push q ~time:1 ();
  Eventq.push q ~time:2 ();
  Eventq.clear q;
  checkb "empty after clear" true (Eventq.is_empty q);
  checki "peek gone" 0 (match Eventq.peek_time q with None -> 0 | Some _ -> 1)

let test_eventq_peek () =
  let q = Eventq.create () in
  Alcotest.(check (option int)) "empty peek" None (Eventq.peek_time q);
  Eventq.push q ~time:42 "x";
  Alcotest.(check (option int)) "peek" (Some 42) (Eventq.peek_time q);
  checki "peek does not pop" 1 (Eventq.length q)

let test_eventq_key_order () =
  let q = Eventq.create () in
  Eventq.push q ~time:5 ~key:2 "k2";
  Eventq.push q ~time:5 ~key:0 "k0";
  Eventq.push q ~time:5 ~key:1 "k1";
  Eventq.push q ~time:5 ~key:0 "k0'";
  let order = List.init 4 (fun _ -> snd (Option.get (Eventq.pop q))) in
  Alcotest.(check (list string)) "key then insertion order on equal times"
    [ "k0"; "k0'"; "k1"; "k2" ] order

(* The retention regression: a popped (or cleared) event must not be
   kept alive by the vacated heap slot. Each payload is reachable only
   through the queued closure; once the closure leaves the queue and
   the returned value is dropped, a major GC has to collect it. Kept
   out-of-line so no stale stack slot of the caller roots the payload. *)
let[@inline never] push_tracked q time =
  let payload = Bytes.make 4096 'x' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some payload);
  Eventq.push q ~time (fun () -> ignore (Bytes.length payload));
  w

let[@inline never] pop_and_drop q = ignore (Eventq.pop q)

let test_eventq_pop_releases () =
  let q = Eventq.create () in
  let w = push_tracked q 10 in
  (* a second event keeps the queue non-empty, so the popped slot is
     genuinely a vacated interior slot, not an emptied queue *)
  Eventq.push q ~time:20 (fun () -> ());
  pop_and_drop q;
  Gc.full_major ();
  Gc.full_major ();
  checkb "payload collectable once popped" false (Weak.check w 0);
  checki "other event still queued" 1 (Eventq.length q)

let test_eventq_clear_releases () =
  let q = Eventq.create () in
  let ws = List.init 3 (fun i -> push_tracked q (10 * (i + 1))) in
  Eventq.clear q;
  Gc.full_major ();
  Gc.full_major ();
  List.iteri
    (fun i w ->
      checkb (Printf.sprintf "payload %d collectable after clear" i) false
        (Weak.check w 0))
    ws

(* qcheck: an interleaved push/pop/pop_payload/clear trace agrees with a
   sorted-list reference model — global time order, then key, and among
   equal (time, key) the sequence number: push order (FIFO), or for a
   [push_reserved] the place its [reserve] took. After every step the
   observers ([length], [is_empty], [peek_time], [min_time]) must agree
   with the model too. Pushes outweigh pops, and bursts of pushes onto a
   few times grow the heap past 7 levels between clears, with many
   equal times, so a pop that picks the wrong child deep in the heap
   shows. *)
let qtest = QCheck_alcotest.to_alcotest

type eventq_op =
  | Push of int * int
  | Burst of int * int
  | Reserve
  | Push_reserved of int
  | Pop
  | Pop_payload
  | Clear

(* Insert behind every entry that sorts at or before (t, k, seq). *)
let rec model_insert ((t, k, s, _) as x) = function
  | ((t', k', s', _) as y) :: rest when (t', k', s') <= (t, k, s) ->
      y :: model_insert x rest
  | l -> x :: l

let eventq_model_prop =
  let open QCheck in
  let gen_op =
    Gen.(
      frequency
        [
          (30, map2 (fun t k -> Push (t, k)) (int_bound 20) (int_bound 3));
          (3, map2 (fun n t -> Burst (n, t)) (int_range 16 64) (int_bound 20));
          (4, return Reserve);
          (4, map (fun t -> Push_reserved t) (int_bound 20));
          (10, return Pop);
          (10, return Pop_payload);
          (1, return Clear);
        ])
  in
  let print_op = function
    | Push (t, k) -> Printf.sprintf "push(t=%d,k=%d)" t k
    | Burst (n, t) -> Printf.sprintf "burst(n=%d,t=%d..%d)" n t (t + 2)
    | Reserve -> "reserve"
    | Push_reserved t -> Printf.sprintf "push_reserved(t=%d)" t
    | Pop -> "pop"
    | Pop_payload -> "pop_payload"
    | Clear -> "clear"
  in
  let arb = make ~print:(Print.list print_op) Gen.(list_size (1 -- 400) gen_op) in
  Test.make ~count:500 ~name:"Eventq trace = sorted-list model" arb (fun ops ->
      let q = Eventq.create () in
      let model = ref [] in
      (* [next_seq] mirrors the queue's: every push and reserve takes
         one. [reserved] holds the seqs taken but not yet pushed. *)
      let next_seq = ref 0 and next_id = ref 0 and reserved = ref [] in
      let push t k =
        let id = !next_id in
        incr next_id;
        Eventq.push q ~time:t ~key:k id;
        model := model_insert (t, k, !next_seq, id) !model;
        incr next_seq
      in
      let step op =
        match op with
        | Push (t, k) ->
            push t k;
            true
        | Burst (n, t) ->
            (* keys 0 and 1 over three times: deep runs of equal times *)
            for i = 0 to n - 1 do
              push (t + (i mod 3)) (i / 3 mod 2)
            done;
            true
        | Reserve ->
            let seq = Eventq.reserve q in
            reserved := !reserved @ [ seq ];
            incr next_seq;
            seq = !next_seq - 1
        | Push_reserved t -> (
            match !reserved with
            | [] -> true
            | seq :: rest ->
                reserved := rest;
                let id = !next_id in
                incr next_id;
                Eventq.push_reserved q ~time:t ~seq ~tag:0 id;
                model := model_insert (t, 0, seq, id) !model;
                true)
        | Pop -> (
            match (Eventq.pop q, !model) with
            | None, [] -> true
            | Some (t, id), (mt, _, _, mid) :: rest ->
                model := rest;
                t = mt && id = mid
            | Some _, [] | None, _ :: _ -> false)
        | Pop_payload -> (
            match !model with
            | [] -> (
                match Eventq.pop_payload q with
                | _ -> false
                | exception Invalid_argument _ -> true)
            | (_, _, _, mid) :: rest ->
                model := rest;
                Eventq.pop_payload q = mid)
        | Clear ->
            Eventq.clear q;
            model := [];
            true
      in
      let observers_agree () =
        match !model with
        | [] ->
            Eventq.length q = 0 && Eventq.is_empty q
            && Eventq.peek_time q = None
            && Eventq.min_time q = max_int
        | (t, _, _, _) :: _ ->
            Eventq.length q = List.length !model
            && (not (Eventq.is_empty q))
            && Eventq.peek_time q = Some t
            && Eventq.min_time q = t
      in
      List.for_all (fun op -> step op && observers_agree ()) ops)

(* Allocation guards for the event loops. On a warmed queue (its
   arrays already grown), a push + pop_payload pair of a preallocated
   closure allocates nothing, and an [Engine.schedule ~cat] plus the
   fire of a preallocated event stays within
   [engine_words_per_event_max] minor words. Both bounds sit below the
   5 words a heap entry record per push would cost. The logs print the
   measured figures. *)
let eventq_words_per_pair_max = 1.0
let engine_words_per_event_max = 1.0
let alloc_rounds = 10_000

let test_eventq_alloc_bound () =
  let q = Eventq.create () in
  let f () = () in
  for i = 1 to alloc_rounds do
    Eventq.push q ~time:i f
  done;
  while not (Eventq.is_empty q) do
    Eventq.pop_payload q ()
  done;
  (* one resident event keeps every pop a genuine sift *)
  Eventq.push q ~time:max_int f;
  let w0 = Gc.minor_words () in
  for i = 1 to alloc_rounds do
    Eventq.push q ~time:(i land 1023) f;
    Eventq.pop_payload q ()
  done;
  let per_pair = (Gc.minor_words () -. w0) /. float_of_int alloc_rounds in
  Printf.printf "eventq guard: %.2f minor words per push + pop_payload\n"
    per_pair;
  if per_pair > eventq_words_per_pair_max then
    Alcotest.failf "%.2f minor words per push + pop_payload > %.2f" per_pair
      eventq_words_per_pair_max

let test_engine_alloc_bound () =
  let e = Engine.create () in
  let fired = ref 0 in
  let ev _ = incr fired in
  for _ = 1 to 64 do
    Engine.schedule e ~cat:Engine.Profiler.Dma ~delay:1 ev
  done;
  Engine.run_until_idle e;
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_rounds do
    Engine.schedule e ~cat:Engine.Profiler.Dma ~delay:3 ev;
    Engine.run_until_idle e
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int alloc_rounds in
  Printf.printf "engine guard: %.2f minor words per schedule ~cat + fire\n"
    per_event;
  checki "every event fired" (64 + alloc_rounds) !fired;
  checki "gaps charged to the event's category" (3 * alloc_rounds + 1)
    (Udma_obs.Profiler.total (Engine.profiler e) Engine.Profiler.Dma);
  if per_event > engine_words_per_event_max then
    Alcotest.failf "%.2f minor words per schedule ~cat + fire > %.2f" per_event
      engine_words_per_event_max

(* ---------- Engine ---------- *)

let test_engine_advance () =
  let e = Engine.create () in
  checki "starts at 0" 0 (Engine.now e);
  Engine.advance e 100;
  checki "advanced" 100 (Engine.now e)

(* An event due exactly at the horizon fires inside the window. *)
let test_engine_events_fire_in_window () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:50 (fun _ -> fired := 50 :: !fired);
  Engine.schedule e ~delay:100 (fun _ -> fired := 100 :: !fired);
  Engine.schedule e ~delay:150 (fun _ -> fired := 150 :: !fired);
  Engine.advance e 100;
  Alcotest.(check (list int)) "only due events" [ 100; 50 ] !fired;
  Engine.advance e 100;
  Alcotest.(check (list int)) "the rest" [ 150; 100; 50 ] !fired

let test_engine_event_clock () =
  let e = Engine.create () in
  let seen = ref (-1) in
  Engine.schedule e ~delay:30 (fun e -> seen := Engine.now e);
  Engine.advance e 100;
  checki "event sees its own timestamp" 30 !seen;
  checki "clock ends at horizon" 100 (Engine.now e)

let test_engine_cascading_events () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10 (fun e ->
      log := ("a", Engine.now e) :: !log;
      Engine.schedule e ~delay:5 (fun e -> log := ("b", Engine.now e) :: !log));
  Engine.advance e 20;
  Alcotest.(check (list (pair string int)))
    "chained event fires inside the window"
    [ ("b", 15); ("a", 10) ]
    !log

let test_engine_schedule_at () =
  let e = Engine.create () in
  Engine.advance e 50;
  let fired = ref [] in
  Engine.schedule_at e ~time:100 (fun e -> fired := Engine.now e :: !fired);
  (* a time in the past clamps to now *)
  Engine.schedule_at e ~time:10 (fun e -> fired := Engine.now e :: !fired);
  Engine.run_until_idle e;
  Alcotest.(check (list int)) "absolute + clamped" [ 100; 50 ] !fired

let test_engine_run_until_idle () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain n _ =
    incr count;
    if n > 0 then Engine.schedule e ~delay:10 (chain (n - 1))
  in
  Engine.schedule e ~delay:10 (chain 4);
  Engine.run_until_idle e;
  checki "all fired" 5 !count;
  checki "clock at last event" 50 (Engine.now e)

(* Pins [wait_for]'s jump rule: jump straight to the next event when
   one poll would not reach it, otherwise charge one poll. Events at 5
   and 6 and the flag at 1000: jump to 5, poll to 7 (firing 6), jump to
   1000. *)
let test_engine_wait_for () =
  let e = Engine.create () in
  let flag = ref false and log = ref [] in
  let note e = log := Engine.now e :: !log in
  Engine.schedule e ~delay:5 note;
  Engine.schedule e ~delay:6 note;
  Engine.schedule e ~delay:1000 (fun e -> note e; flag := true);
  let polls = Engine.wait_for e ~poll_cost:2 (fun () -> !flag) in
  checkb "condition met" true !flag;
  checki "polls" 3 polls;
  checki "clock at the event" 1000 (Engine.now e);
  Alcotest.(check (list int)) "events at their own times" [ 1000; 6; 5 ] !log

let test_engine_wait_for_idle_failure () =
  let e = Engine.create () in
  Alcotest.check_raises "impossible condition"
    (Failure "Engine.wait_for: condition can never become true (idle)")
    (fun () -> ignore (Engine.wait_for e (fun () -> false)))

(* A horizon of [max_int] equals the empty queue's [min_time]; the
   loop must still stop instead of popping an empty queue. *)
let test_engine_run_until_max_int () =
  let e = Engine.create () in
  Engine.run_until e max_int;
  checki "empty queue: clock at horizon" max_int (Engine.now e);
  let e = Engine.create () in
  let seen = ref (-1) in
  Engine.schedule_at e ~time:(max_int / 2) (fun e -> seen := Engine.now e);
  Engine.run_until e max_int;
  checki "event fired at its time" (max_int / 2) !seen;
  checki "clock at horizon" max_int (Engine.now e);
  checki "queue drained" 0 (Engine.pending_events e)

let test_engine_time_conversion () =
  let e = Engine.create ~mhz:100 () in
  Alcotest.(check (float 0.001)) "10 ns per cycle at 100 MHz" 10.0
    (Engine.ns_of_cycles e 1);
  Alcotest.(check (float 0.001)) "us" 1.0 (Engine.us_of_cycles e 100)

(* [Engine.step_to] against the event it stands for. A chain event
   that wants to run again at [now + gap] either steps there in place
   when [step_to] allows it or schedules itself, and must see the same
   clock and profiler totals at every run as a chain that always
   schedules an uncategorised event; so must every other event, some
   categorised and some scheduling a follow-up, and the top-level
   [advance_in]/[run_until] calls around them. *)
type step_drive = Advance_in of Engine.Profiler.category * int | Run_until of int

let step_to_prop =
  let open QCheck in
  let cats = Array.of_list Engine.Profiler.categories in
  let gen =
    Gen.(
      let cat = map (fun i -> cats.(i)) (int_bound (Array.length cats - 1)) in
      let other = triple (int_bound 300) (opt cat) (opt (int_range 0 40)) in
      let drive =
        frequency
          [ (3, map2 (fun c n -> Advance_in (c, n)) cat (int_bound 60));
            (1, map (fun t -> Run_until t) (int_bound 400)) ]
      in
      quad (int_bound 50) (list_size (0 -- 40) (int_range 1 20))
        (list_size (0 -- 30) other) (list_size (0 -- 12) drive))
  in
  let print (start, gaps, others, drive) =
    let cat c = Engine.Profiler.category_name c in
    Printf.sprintf "chain@%d gaps=[%s] others=[%s] drive=[%s]" start
      (String.concat "," (List.map string_of_int gaps))
      (String.concat ","
         (List.map
            (fun (t, c, f) ->
              Printf.sprintf "%d%s%s" t (Option.fold ~none:"" ~some:(fun c -> ":" ^ cat c) c)
                (Option.fold ~none:"" ~some:(Printf.sprintf "+%d") f))
            others))
      (String.concat ","
         (List.map
            (function
              | Advance_in (c, n) -> Printf.sprintf "%s %d" (cat c) n
              | Run_until t -> Printf.sprintf "until %d" t)
            drive))
  in
  let run ~stepping (start, gaps, others, drive) =
    let e = Engine.create () in
    let log = ref [] in
    let note what e =
      log := (what, Engine.now e, Engine.Profiler.to_list (Engine.profile e)) :: !log
    in
    let rec chain gaps e =
      note (-1) e;
      match gaps with
      | [] -> ()
      | g :: rest ->
          let time = Engine.now e + g in
          if stepping && Engine.step_to e time then chain rest e
          else Engine.schedule_at e ~time (chain rest)
    in
    Engine.schedule_at e ~time:start (chain gaps);
    List.iteri
      (fun i (time, cat, follow) ->
        Engine.schedule_at e ?cat ~time (fun e ->
            note i e;
            Option.iter (fun delay -> Engine.schedule e ~delay (note (1000 + i))) follow))
      others;
    List.iter
      (function
        | Advance_in (cat, n) -> Engine.advance_in e cat n
        | Run_until t -> Engine.run_until e t)
      drive;
    Engine.run_until_idle e;
    (List.rev !log, Engine.now e, Engine.Profiler.to_list (Engine.profile e))
  in
  Test.make ~count:500 ~name:"step_to = an uncategorised event at the same time"
    (make ~print gen) (fun m -> run ~stepping:true m = run ~stepping:false m)

(* qcheck: a boundary is a no-op event. The same random program runs
   on an engine that reserves each boundary with [Engine.boundary] and
   on a twin that schedules [ignore] at each boundary's time instead.
   Programs schedule events under random categories or none, each with
   a body of further actions; post to three lanes (none, Wire, Dma);
   reserve boundaries, mostly a few cycles ahead so they tie with
   events in both seq orders, some past the calendar's window; run
   nested [advance_in] inside events; try [step_to]; and read the
   engine. Between actions the top level drives the engine with
   [run_until], [run_before], [advance_in], [wait_for] and
   [run_until_idle]. Every read, inside events and after every
   top-level step, logs the clock, the profiler totals,
   [next_event_time] and [pending_events]; [step_to] logs whether it
   stepped and [wait_for] its polls or its failure. The two logs must
   be equal. *)
type b_act =
  | B_event of int * int * b_act list  (* delay, category (0 none), body *)
  | B_lane of int * int  (* lane, delay *)
  | B_bound of int  (* delay *)
  | B_advance of int * int  (* category, cost *)
  | B_step of int  (* cycles ahead *)
  | B_read

type b_top =
  | T_act of b_act
  | T_until of int
  | T_before of int
  | T_advance of int * int
  | T_wait of int
  | T_idle

let boundary_prop =
  let open QCheck in
  let cats = Array.of_list Engine.Profiler.categories in
  let ncat = Array.length cats in
  let ahead =
    Gen.(frequency [ (6, int_bound 12); (2, int_bound 80); (1, int_range 4_000 9_000) ])
  in
  let act =
    Gen.(
      fix
        (fun self depth ->
          let leaf =
            frequency
              [ (4, map (fun d -> B_bound d) ahead);
                (2, map2 (fun l d -> B_lane (l, d)) (int_bound 2) (int_bound 30));
                (1, map2 (fun c n -> B_advance (c, n)) (int_bound (ncat - 1)) (int_bound 20));
                (1, map (fun k -> B_step k) (int_range 1 30));
                (1, return B_read) ]
          in
          if depth = 0 then leaf
          else
            frequency
              [ (3, leaf);
                (3,
                 map3
                   (fun d c body -> B_event (d, c, body))
                   ahead (int_bound ncat)
                   (list_size (0 -- 3) (self (depth - 1)))) ])
        2)
  in
  let top =
    Gen.(
      frequency
        [ (6, map (fun a -> T_act a) act);
          (1, map (fun d -> T_until d) (int_bound 100));
          (1, map (fun d -> T_before d) (int_bound 100));
          (1, map2 (fun c n -> T_advance (c, n)) (int_bound (ncat - 1)) (int_bound 60));
          (1, map (fun n -> T_wait n) (int_range 1 4));
          (1, return T_idle) ])
  in
  let rec show = function
    | B_event (d, c, body) ->
        Printf.sprintf "ev+%d/%d{%s}" d c (String.concat ";" (List.map show body))
    | B_lane (l, d) -> Printf.sprintf "lane%d+%d" l d
    | B_bound d -> Printf.sprintf "b+%d" d
    | B_advance (c, n) -> Printf.sprintf "adv%d/%d" n c
    | B_step k -> Printf.sprintf "step+%d" k
    | B_read -> "read"
  in
  let print prog =
    String.concat " "
      (List.map
         (function
           | T_act a -> show a
           | T_until d -> Printf.sprintf "until+%d" d
           | T_before d -> Printf.sprintf "before+%d" d
           | T_advance (c, n) -> Printf.sprintf "advance%d/%d" n c
           | T_wait n -> Printf.sprintf "wait%d" n
           | T_idle -> "idle")
         prog)
  in
  let run ~twin prog =
    let e = Engine.create () in
    let log = ref [] and fired = ref 0 in
    let note what =
      log :=
        ( what, Engine.now e, Engine.Profiler.to_list (Engine.profile e),
          Engine.next_event_time e, Engine.pending_events e )
        :: !log
    in
    let lanes =
      Array.mapi
        (fun i cat ->
          Engine.lane e ?cat (fun _ ->
              incr fired;
              note (Printf.sprintf "lane%d" i)))
        [| None; Some Engine.Profiler.Wire; Some Engine.Profiler.Dma |]
    in
    let rec act = function
      | B_event (d, c, body) ->
          let cat = if c = 0 then None else Some cats.(c - 1) in
          Engine.schedule e ?cat ~delay:d (fun _ ->
              incr fired;
              note "fire";
              List.iter act body)
      | B_lane (l, d) -> Engine.lane_at lanes.(l) ~time:(Engine.now e + d)
      | B_bound d ->
          let time = Engine.now e + d in
          if twin then Engine.schedule_at e ~time ignore
          else ignore (Engine.boundary e ~time)
      | B_advance (c, n) -> Engine.advance_in e cats.(c) n
      | B_step k -> note (if Engine.step_to e (Engine.now e + k) then "stepped" else "no step")
      | B_read -> note "read"
    in
    List.iter
      (fun step ->
        (match step with
        | T_act a -> act a
        | T_until d -> Engine.run_until e (Engine.now e + d)
        | T_before d -> Engine.run_before e (Engine.now e + d)
        | T_advance (c, n) -> Engine.advance_in e cats.(c) n
        | T_wait n ->
            let target = !fired + n in
            note
              (match Engine.wait_for e (fun () -> !fired >= target) with
              | polls -> Printf.sprintf "waited %d" polls
              | exception Failure why -> why)
        | T_idle -> Engine.run_until_idle e);
        note "top")
      prog;
    Engine.run_until_idle e;
    note "end";
    List.rev !log
  in
  Test.make ~count:500 ~name:"a boundary = a no-op event"
    (make ~print Gen.(list_size (1 -- 25) top))
    (fun prog -> run ~twin:false prog = run ~twin:true prog)

(* Boundaries past the calendar's window wait in a heap until passed.
   An engine whose events carry no category never charges up to one,
   so passed ones must still leave when the engine counts what is
   pending: 200,000 far boundaries, each passed by [run_until_idle],
   may not grow the major heap by more than a few thousand words. *)
let test_far_boundaries_bounded () =
  let e = Engine.create () in
  ignore (Engine.boundary e ~time:1);
  Engine.run_until_idle e;
  Gc.compact ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  for _ = 1 to 200_000 do
    ignore (Engine.boundary e ~time:(Engine.now e + 10_000));
    Engine.run_until_idle e
  done;
  checki "nothing pending" 0 (Engine.pending_events e);
  Gc.compact ();
  let grown = (Gc.quick_stat ()).Gc.heap_words - before in
  if grown > 20_000 then Alcotest.failf "heap grew by %d words" grown

(* qcheck: a lane is [schedule_at] of its event and category, exactly.
   Up to four lanes, each under a random category or none, fire beside
   ordinary events and a chain that steps in place through [step_to].
   Lane firings are posted before the run, from the drive between
   [advance_in]/[run_until] steps, by ordinary events and by lane
   firings themselves, at times drawn from a narrow range, so they tie
   with other events and come out of order (and into the past, where
   the clock clamps them). Some lane firings run a nested [advance],
   which fires later events from inside the firing. The same case runs
   once on lanes and once with every [lane_at] made a [schedule_at];
   after every firing and every drive step the firing log, the clock,
   the profiler totals, [pending_events] and both engine counters must
   agree. *)
type lane_drive =
  | Lane_advance_in of Engine.Profiler.category * int
  | Lane_run_until of int
  | Lane_post of int * int

type lane_case = {
  lane_cats : Engine.Profiler.category option array;
  lane_follow : (int * int) option array array;
  lane_nest : int option array array;
  lane_posts : (int * int) list;
  lane_others : (int * Engine.Profiler.category option * (int * int) option) list;
  lane_chain : int * int list;
  lane_drive : lane_drive list;
}

let lane_prop =
  let open QCheck in
  let cats = Array.of_list Engine.Profiler.categories in
  let cat = Gen.(map (fun i -> cats.(i)) (int_bound (Array.length cats - 1))) in
  let post = Gen.(pair (int_bound 3) (int_range (-6) 12)) in
  let gen =
    Gen.(
      let* n = int_range 1 4 in
      let* lane_cats = array_repeat n (opt cat) in
      let* lane_follow = array_repeat n (array_size (0 -- 12) (opt post)) in
      let* lane_nest =
        array_repeat n (array_size (0 -- 6) (opt ~ratio:0.3 (int_bound 10)))
      in
      let* lane_posts = list_size (0 -- 30) (pair (int_bound 3) (int_bound 40)) in
      let* lane_others =
        list_size (0 -- 20) (triple (int_bound 40) (opt cat) (opt post))
      in
      let* lane_chain = pair (int_bound 30) (list_size (0 -- 20) (int_range 1 8)) in
      let* lane_drive =
        list_size (0 -- 16)
          (frequency
             [ (3, map2 (fun c n -> Lane_advance_in (c, n)) cat (int_bound 15));
               (1, map (fun t -> Lane_run_until t) (int_bound 80));
               (2, map (fun (j, d) -> Lane_post (j, d)) post) ])
      in
      return
        { lane_cats; lane_follow; lane_nest; lane_posts; lane_others; lane_chain;
          lane_drive })
  in
  let print c =
    let cat = Option.fold ~none:"-" ~some:Engine.Profiler.category_name in
    let post = Option.fold ~none:"." ~some:(fun (j, d) -> Printf.sprintf "%d%+d" j d) in
    let list f l = "[" ^ String.concat "," (List.map f l) ^ "]" in
    let nest = Option.fold ~none:"." ~some:string_of_int in
    Printf.sprintf "lanes=%s follow=%s nest=%s posts=%s others=%s chain=%d%s drive=%s"
      (list cat (Array.to_list c.lane_cats))
      (list (fun a -> list post (Array.to_list a)) (Array.to_list c.lane_follow))
      (list (fun a -> list nest (Array.to_list a)) (Array.to_list c.lane_nest))
      (list (fun (j, t) -> Printf.sprintf "%d@%d" j t) c.lane_posts)
      (list (fun (t, c, p) -> Printf.sprintf "%d:%s:%s" t (cat c) (post p)) c.lane_others)
      (fst c.lane_chain) (list string_of_int (snd c.lane_chain))
      (list
         (function
           | Lane_advance_in (c, n) -> Printf.sprintf "%s %d" (cat (Some c)) n
           | Lane_run_until t -> Printf.sprintf "until %d" t
           | Lane_post (j, d) -> Printf.sprintf "post %d%+d" j d)
         c.lane_drive)
  in
  let run ~lanes c =
    let e = Engine.create () in
    let metrics = Engine.metrics e in
    let log = ref [] in
    let note what =
      log :=
        ( what, Engine.now e, Engine.Profiler.to_list (Engine.profile e),
          Engine.pending_events e,
          Udma_obs.Metrics.get metrics "engine.scheduled",
          Udma_obs.Metrics.get metrics "engine.events_fired" )
        :: !log
    in
    let n = Array.length c.lane_cats in
    let fired = Array.make n 0 in
    let posts = Array.make n (fun ~time:_ -> ()) in
    let post (j, delay) = posts.(j mod n) ~time:(Engine.now e + delay) in
    let ev j _ =
      note (100 + j);
      let k = fired.(j) in
      fired.(j) <- k + 1;
      let follow = c.lane_follow.(j) in
      if k < Array.length follow then Option.iter post follow.(k);
      let nest = c.lane_nest.(j) in
      if k < Array.length nest then
        Option.iter
          (fun n ->
            Engine.advance e n;
            note (200 + j))
          nest.(k)
    in
    Array.iteri
      (fun j cat ->
        posts.(j) <-
          (if lanes then
             let l = Engine.lane e ?cat (ev j) in
             fun ~time -> Engine.lane_at l ~time
           else fun ~time -> Engine.schedule_at e ?cat ~time (ev j)))
      c.lane_cats;
    List.iter (fun (j, time) -> posts.(j mod n) ~time) c.lane_posts;
    List.iteri
      (fun i (time, cat, follow) ->
        Engine.schedule_at e ?cat ~time (fun _ ->
            note i;
            Option.iter post follow))
      c.lane_others;
    let rec chain gaps e =
      note (-1);
      match gaps with
      | [] -> ()
      | g :: rest ->
          let time = Engine.now e + g in
          if Engine.step_to e time then chain rest e
          else Engine.schedule_at e ~time (chain rest)
    in
    Engine.schedule_at e ~time:(fst c.lane_chain) (chain (snd c.lane_chain));
    note (-2);
    List.iter
      (fun d ->
        (match d with
        | Lane_advance_in (cat, n) -> Engine.advance_in e cat n
        | Lane_run_until t -> Engine.run_until e t
        | Lane_post (j, delay) -> post (j, delay));
        note (-3))
      c.lane_drive;
    Engine.run_until_idle e;
    note (-4);
    List.rev !log
  in
  Test.make ~count:500 ~name:"lanes = schedule_at" (make ~print gen) (fun c ->
      run ~lanes:true c = run ~lanes:false c)

(* A warm lane's [lane_at] plus its fire allocates nothing: a lane of
   four firings in flight (three in the backlog) posts and fires
   [alloc_rounds] times each. The measurement's own float boxes are
   read first and taken off. *)
let test_lane_alloc_bound () =
  let e = Engine.create () in
  let fired = ref 0 in
  let l = Engine.lane e ~cat:Engine.Profiler.Wire (fun _ -> incr fired) in
  for i = 1 to 64 do
    Engine.lane_at l ~time:i
  done;
  Engine.run_until_idle e;
  let m0 = Gc.minor_words () in
  let m1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_rounds do
    let now = Engine.now e in
    for d = 1 to 4 do
      Engine.lane_at l ~time:(now + d)
    done;
    Engine.run_until_idle e
  done;
  let words = Gc.minor_words () -. w0 -. (m1 -. m0) in
  Printf.printf "lane guard: %.0f minor words over %d lane_at + fire
" words
    (4 * alloc_rounds);
  checki "every firing fired" (64 + (4 * alloc_rounds)) !fired;
  checki "gaps charged to the lane's category" (64 + (4 * alloc_rounds))
    (Udma_obs.Profiler.total (Engine.profiler e) Engine.Profiler.Wire);
  if words > 0.0 then
    Alcotest.failf "%.0f minor words over %d lane_at + fire, want 0" words
      (4 * alloc_rounds)

(* [step_to] refuses when an event is due at or before the target, when
   the target lies past the running pump's, and outside any pump. *)
let test_engine_step_to_refuses () =
  let e = Engine.create () in
  checkb "outside a pump" false (Engine.step_to e 5);
  checki "clock unmoved" 0 (Engine.now e);
  let seen = ref [] in
  let probe time e =
    let stepped = Engine.step_to e time in
    seen := (time, stepped, Engine.now e) :: !seen
  in
  Engine.schedule_at e ~time:10 ignore;
  Engine.schedule_at e ~time:5 (fun e -> List.iter (fun t -> probe t e) [ 12; 10; 9 ]);
  Engine.schedule_at e ~time:15 (fun e -> List.iter (fun t -> probe t e) [ 21; 20 ]);
  Engine.run_until e 20;
  Alcotest.(check (list (triple int bool int)))
    "due event, then past the target"
    [ (12, false, 5); (10, false, 5); (9, true, 9); (21, false, 15); (20, true, 20) ]
    (List.rev !seen);
  checki "run_until still ends at its target" 20 (Engine.now e);
  checkb "outside again" false (Engine.step_to e 25)

(* A nested pump publishes its own horizon and restores the enclosing
   one when it returns, and when one of its events raises. *)
let test_engine_step_to_nested () =
  let e = Engine.create () in
  let seen = ref [] in
  let probe what time e = seen := (what, Engine.step_to e time) :: !seen in
  Engine.schedule_at e ~time:5 (fun e ->
      Engine.schedule_at e ~time:8 (fun e ->
          probe "past inner" 16 e;
          probe "inner" 15 e);
      Engine.advance e 10;
      probe "outer restored" 60 e;
      Engine.schedule_at e ~time:62 (fun _ -> failwith "boom");
      (try Engine.advance e 10 with Failure _ -> ());
      probe "outer restored after raise" 90 e;
      probe "past outer" 101 e);
  Engine.run_until e 100;
  Alcotest.(check (list (pair string bool)))
    "horizons"
    [ ("past inner", false); ("inner", true); ("outer restored", true);
      ("outer restored after raise", true); ("past outer", false) ]
    (List.rev !seen);
  Engine.schedule_at e ~time:110 (fun _ -> failwith "boom");
  (try Engine.run_until_idle e with Failure _ -> ());
  checkb "no pump after a raise at top level" false (Engine.step_to e 120)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let sa = List.init 50 (fun _ -> Rng.int a 1000) in
  let sb = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" sa sb

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 100 do
    let f = Rng.float r 2.5 in
    checkb "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_split_independence () =
  let r = Rng.create 11 in
  let r2 = Rng.split r in
  let s1 = List.init 20 (fun _ -> Rng.int r 1_000_000) in
  let s2 = List.init 20 (fun _ -> Rng.int r2 1_000_000) in
  checkb "streams differ" true (s1 <> s2)

let test_rng_shuffle_is_permutation () =
  let r = Rng.create 5 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_rng_pick () =
  let r = Rng.create 1 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    checkb "picked element" true (Array.mem (Rng.pick r arr) arr)
  done

(* ---------- Trace ---------- *)

let test_trace_basic () =
  let t = Trace.create ~enabled:true () in
  Trace.note t ~time:1 Trace.Event.Sim "hello";
  Trace.record t ~time:2 Trace.Event.Udma
    (Trace.Event.Udma_start { src = 0x100; dst = 0x200; nbytes = 64 });
  match Trace.events t with
  | [ e1; e2 ] ->
      checki "first time" 1 e1.Trace.Event.time;
      checkb "note payload" true
        (e1.Trace.Event.payload = Trace.Event.Note "hello");
      checki "second time" 2 e2.Trace.Event.time;
      checkb "typed payload" true
        (match e2.Trace.Event.payload with
        | Trace.Event.Udma_start { nbytes; _ } -> nbytes = 64
        | _ -> false)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_trace_disabled () =
  let t = Trace.create ~enabled:false () in
  Trace.note t ~time:1 Trace.Event.Sim "x";
  Trace.record t ~time:2 Trace.Event.Vm
    (Trace.Event.Fault { vaddr = 0x1000; kind = "page" });
  checki "nothing recorded" 0 (List.length (Trace.events t))

let test_trace_matching () =
  let t = Trace.create ~enabled:true () in
  Trace.note t ~time:1 Trace.Event.Udma "start";
  Trace.note t ~time:2 Trace.Event.Sched "switch";
  Trace.note t ~time:3 Trace.Event.Udma "inval";
  checki "matching" 2
    (List.length
       (Trace.matching t (fun e -> e.Trace.Event.subsystem = Trace.Event.Udma)));
  checki "no match" 0
    (List.length
       (Trace.matching t (fun e -> e.Trace.Event.subsystem = Trace.Event.Ni)))

let test_trace_capacity () =
  let t = Trace.create ~capacity:10 ~enabled:true () in
  for i = 1 to 100 do
    Trace.note t ~time:i Trace.Event.Sim "e"
  done;
  checkb "bounded" true (List.length (Trace.events t) <= 10)

let test_trace_sinks () =
  (* sinks fire even when the ring is disabled *)
  let t = Trace.create ~enabled:false () in
  let sink, count = Trace.Event.counting_sink () in
  Trace.add_sink t sink;
  Trace.note t ~time:1 Trace.Event.Sim "a";
  Trace.note t ~time:2 Trace.Event.Sim "b";
  checki "sink saw both" 2 (count ());
  checki "ring still empty" 0 (List.length (Trace.events t))

(* ---------- Rng.int_unbiased / substream ---------- *)

(* The legacy biased stream is pinned: every committed anchor was
   produced through Rng.int, so its outputs must never move. *)
let test_rng_int_stream_pinned () =
  let r = Rng.create 42 in
  let got = List.init 8 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int))
    "Rng.int stream @ seed 42"
    [ 853; 72; 964; 941; 812; 265; 231; 977 ]
    got

let test_rng_unbiased_stream_pinned () =
  let r = Rng.create 7 in
  let got = List.init 8 (fun _ -> Rng.int_unbiased r 1000) in
  Alcotest.(check (list int))
    "Rng.int_unbiased stream @ seed 7"
    [ 621; 951; 336; 50; 918; 76; 949; 295 ]
    got

let test_rng_unbiased_bounds () =
  let r = Rng.create 1 in
  (* a power-of-two bound (divides 2^62: the no-tail path), tiny bounds,
     and a bound over half the raw range (the heavy-rejection path) *)
  List.iter
    (fun bound ->
      for _ = 1 to 200 do
        let v = Rng.int_unbiased r bound in
        checkb "in range" true (v >= 0 && v < bound)
      done)
    [ 1; 2; 3; 64; 1000; (max_int / 2) + 3 ];
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int_unbiased: bound must be positive") (fun () ->
      ignore (Rng.int_unbiased r 0))

let test_rng_unbiased_uniform () =
  let r = Rng.create 99 in
  let buckets = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let v = Rng.int_unbiased r 3 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb
        (Printf.sprintf "bucket %d near n/3 (got %d)" i c)
        true
        (abs (c - (n / 3)) < n / 30))
    buckets

let test_rng_substream () =
  let a = Rng.substream 42 0 and a' = Rng.substream 42 0 in
  let b = Rng.substream 42 1 in
  let take r = List.init 6 (fun _ -> Rng.int_unbiased r 1_000_000) in
  Alcotest.(check (list int)) "same (seed, index) = same stream" (take a')
    (take (Rng.substream 42 0));
  checkb "distinct indices decorrelate" true (take a <> take b);
  (* partition independence: the stream for index i never depends on
     which other indices exist or in what order they are created *)
  let direct = take (Rng.substream 7 5) in
  let _ = Rng.substream 7 0 and _ = Rng.substream 7 9 in
  Alcotest.(check (list int)) "creation order irrelevant" direct
    (take (Rng.substream 7 5))

(* ---------- Shard: conservative sharded kernel ---------- *)

module Shard = Udma_sim.Shard

(* A token ring over the shards: each arrival records (shard, time) into
   the owning shard's own trace cell (single-writer, so safe under any
   domain packing) and forwards the token with a cross-shard delay. *)
let run_ring ~domains ~shards ~hops =
  let k = Shard.create ~lookahead:5 ~shards () in
  let traces = Array.init shards (fun _ -> ref []) in
  let rec arrive hop s e =
    traces.(s) := (hop, Engine.now e) :: !(traces.(s));
    if hop < hops then
      let d = (s + 1) mod shards in
      Shard.post k ~src:s ~dst:d ~key:0 ~delay:(5 + (hop mod 3))
        (arrive (hop + 1) d)
  in
  Shard.schedule k ~shard:0 ~delay:1 (arrive 0 0);
  Shard.run ~domains k;
  ( Array.map (fun r -> List.rev !r) traces,
    Shard.events_executed k,
    Shard.messages_posted k,
    Shard.windows_run k )

let test_shard_ring_sequential () =
  let traces, events, posts, windows = run_ring ~domains:1 ~shards:4 ~hops:10 in
  checki "one event per hop" 11 events;
  checki "every forward crosses a shard boundary" 10 posts;
  checkb "windows advanced" true (windows > 0);
  Alcotest.(check (list (pair int int)))
    "shard 0 sees hops 0, 4, 8"
    [ (0, 1); (4, 24); (8, 48) ]
    traces.(0)

let test_shard_domain_invariance () =
  let base = run_ring ~domains:1 ~shards:4 ~hops:25 in
  List.iter
    (fun domains ->
      let got = run_ring ~domains ~shards:4 ~hops:25 in
      checkb
        (Printf.sprintf "domains=%d identical to sequential" domains)
        true (got = base))
    [ 2; 3; 4; 7 ]

let test_shard_post_below_lookahead () =
  let k = Shard.create ~lookahead:8 ~shards:2 () in
  Alcotest.check_raises "unsound cross-shard delay"
    (Invalid_argument
       "Shard.post: cross-shard delay 3 below lookahead 8 (the conservative \
        window would be unsound)") (fun () ->
      Shard.post k ~src:0 ~dst:1 ~key:0 ~delay:3 ignore);
  (* the same delay within a shard is fine: no window boundary crossed *)
  Shard.post k ~src:0 ~dst:0 ~key:0 ~delay:3 ignore;
  checki "local short post queued" 1 (Shard.pending_events k)

let test_shard_until () =
  let k = Shard.create ~lookahead:10 ~shards:2 () in
  let e0 = Shard.engine k ~shard:0 in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule_at e0 ~time:t (fun _ -> fired := t :: !fired))
    [ 3; 12; 40 ];
  Shard.run ~until:20 k;
  Alcotest.(check (list int)) "only events before the cut" [ 12; 3 ] !fired;
  checki "later event still pending" 1 (Shard.pending_events k);
  checki "the clock stops at the cut" 20 (Engine.now e0);
  Shard.run k;
  Alcotest.(check (list int)) "resume drains the rest" [ 40; 12; 3 ] !fired

(* Three keyed tokens circle a 5-shard ring, each hop a cross-shard
   post. [cuts] stops the run at those times (exclusive) before a final
   run drains the rest. *)
let run_tokens ~domains ~cuts =
  let shards = 5 in
  let k = Shard.create ~lookahead:5 ~shards () in
  let traces = Array.init shards (fun _ -> ref []) in
  let rec arrive tok hop s e =
    traces.(s) := (tok, hop, Engine.now e) :: !(traces.(s));
    if hop < 30 then
      let d = (s + 1 + tok) mod shards in
      Shard.post k ~src:s ~dst:d ~key:tok
        ~delay:(5 + (((hop * 7) + tok) mod 4))
        (arrive tok (hop + 1) d)
  in
  for tok = 0 to 2 do
    Shard.schedule k ~shard:tok ~key:tok ~delay:(1 + tok) (arrive tok 0 tok)
  done;
  List.iter (fun until -> Shard.run ~domains ~until k) cuts;
  Shard.run ~domains k;
  ( Array.map (fun r -> List.rev !r) traces,
    Shard.events_executed k,
    Shard.messages_posted k,
    Shard.windows_run k )

let test_shard_until_resume_domains () =
  let cuts = [ 17; 40; 41; 95 ] in
  let base = run_tokens ~domains:1 ~cuts in
  List.iter
    (fun domains ->
      checkb
        (Printf.sprintf "cut + resume at domains=%d identical to domains=1"
           domains)
        true
        (run_tokens ~domains ~cuts = base))
    [ 2; 3 ];
  let traces, events, posts, _ = base in
  let uncut, uncut_events, uncut_posts, _ = run_tokens ~domains:1 ~cuts:[] in
  checkb "cuts do not change what fires when" true (traces = uncut);
  checki "events" uncut_events events;
  checki "posts" uncut_posts posts

(* An event on shard 3 raises at cycle 42 while a token circles the
   ring until cycle 200. At every domain count the exception reaches
   the caller after the domains join, every domain stopped at the
   failing window (the token is still pending), and the kernel can run
   again. *)
let test_shard_raise_on_worker () =
  List.iter
    (fun domains ->
      let k = Shard.create ~lookahead:4 ~shards:4 () in
      let rec hop s e =
        if Engine.now e < 200 then
          Shard.post k ~src:s ~dst:((s + 1) mod 4) ~key:0 ~delay:4
            (hop ((s + 1) mod 4))
      in
      Shard.schedule k ~shard:0 ~delay:1 (hop 0);
      Engine.schedule_at (Shard.engine k ~shard:3) ~time:42 (fun _ ->
          failwith "boom");
      Alcotest.check_raises
        (Printf.sprintf "domains=%d re-raises" domains)
        (Failure "boom")
        (fun () -> Shard.run ~domains k);
      checki
        (Printf.sprintf "domains=%d stops at the failing window" domains)
        1 (Shard.pending_events k);
      Shard.run ~domains k;
      checki
        (Printf.sprintf "domains=%d drains after the failure" domains)
        0 (Shard.pending_events k))
    [ 1; 2; 3; 4 ]

(* Sources 3, 1 and 2 (posting in that time order) each post three
   messages for cycle 20 with key 5 to shard 0, and source 3 one more
   with key 4. Shard 0 holds a local event at (20, 5) from before the
   run. The key-4 message fires first, then the local event, then the
   rest in (source, post) order, at every domain count. *)
let test_shard_merge_order_pinned () =
  let order ~domains =
    let k = Shard.create ~lookahead:8 ~shards:4 () in
    let fired = ref [] in
    let note tag _ = fired := tag :: !fired in
    Engine.schedule_keyed (Shard.engine k ~shard:0) ~key:5 ~time:20
      (note "local");
    List.iter
      (fun (src, at) ->
        Engine.schedule_at (Shard.engine k ~shard:src) ~time:at (fun e ->
            let delay = 20 - Engine.now e in
            if src = 3 then
              Shard.post k ~src ~dst:0 ~key:4 ~delay (note "3/key4");
            for i = 0 to 2 do
              Shard.post k ~src ~dst:0 ~key:5 ~delay
                (note (Printf.sprintf "%d/%d" src i))
            done))
      [ (3, 1); (1, 3); (2, 2) ];
    Shard.run ~domains k;
    List.rev !fired
  in
  let expected =
    [ "3/key4"; "local"; "1/0"; "1/1"; "1/2"; "2/0"; "2/1"; "2/2"; "3/0";
      "3/1"; "3/2" ]
  in
  List.iter
    (fun domains ->
      Alcotest.(check (list string))
        (Printf.sprintf "domains=%d" domains)
        expected (order ~domains))
    [ 1; 2; 3; 4 ]

(* Each shard is an [Engine], so a lane works inside one: tokens circle
   three shards, and every arrival also posts a firing [d] cycles ahead
   on its shard, through the shard's lane or through [schedule_at] with
   the same category. Each firing logs and, every third time, forwards
   a token itself. The logs, clocks, profiler totals and engine
   counters of every shard must agree, at domains 1 and 2. *)
let lane_shard_run ~lanes ~domains =
  let shards = 3 in
  let k = Shard.create ~lookahead:3 ~shards () in
  let logs = Array.make shards [] in
  let fired = Array.make shards 0 in
  let posts = Array.make shards (fun ~time:_ -> ()) in
  let rec arrive tok hop s e =
    logs.(s) <- (`Arrive, tok, hop, Engine.now e) :: logs.(s);
    posts.(s) ~time:(Engine.now e + ((tok + hop) mod 4));
    if hop < 20 then
      Shard.post k ~src:s ~dst:((s + 1 + tok) mod shards) ~key:(1 + tok)
        ~delay:(3 + (hop mod 2))
        (arrive tok (hop + 1) ((s + 1 + tok) mod shards))
  and fire s e =
    let n = fired.(s) in
    fired.(s) <- n + 1;
    logs.(s) <- (`Fire, n, 0, Engine.now e) :: logs.(s);
    if n mod 3 = 2 && n < 30 then
      Shard.post k ~src:s ~dst:((s + 2) mod shards) ~key:(10 + n) ~delay:5
        (arrive (10 + n) 20 ((s + 2) mod shards))
  in
  Array.iteri
    (fun s _ ->
      let e = Shard.engine k ~shard:s in
      let cat = Engine.Profiler.Wire in
      posts.(s) <-
        (if lanes then
           let l = Engine.lane e ~cat (fire s) in
           fun ~time -> Engine.lane_at l ~time
         else fun ~time -> Engine.schedule_at e ~cat ~time (fire s)))
    posts;
  for tok = 0 to 2 do
    Shard.schedule k ~shard:tok ~key:(1 + tok) ~delay:tok (arrive tok 0 tok)
  done;
  Shard.run ~domains k;
  Array.mapi
    (fun s log ->
      let e = Shard.engine k ~shard:s in
      ( List.rev log, Engine.now e,
        Engine.Profiler.to_list (Engine.profile e),
        Udma_obs.Metrics.counters (Engine.metrics e) ))
    logs

let test_shard_lane () =
  let base = lane_shard_run ~lanes:false ~domains:1 in
  List.iter
    (fun domains ->
      checkb
        (Printf.sprintf "lane = schedule_at at domains=%d" domains)
        true
        (lane_shard_run ~lanes:true ~domains = base))
    [ 1; 2 ];
  checkb "the lanes fired" true
    (Array.for_all
       (fun (log, _, _, _) ->
         List.exists (fun (what, _, _, _) -> what = `Fire) log)
       base)

(* A warm [Shard.schedule], a cross-shard post, its merge into the
   destination engine and both fires allocate nothing: a ping-pong
   between two shards, whose events are preallocated, runs [n] rounds,
   and the words of [alloc_rounds] extra rounds are compared with a
   run of a few. Every round is a window of its own, so the per-window
   work is in the figure too. A [?key] forwarded through an optional
   argument would cost 2 words per round. *)
let shard_round_words rounds =
  let k = Shard.create ~lookahead:1 ~shards:2 () in
  let left = ref rounds in
  let rec ping _ =
    decr left;
    if !left > 0 then begin
      Shard.schedule k ~shard:0 ~delay:0 ignore;
      Shard.post k ~src:0 ~dst:1 ~key:1 ~delay:1 pong
    end
  and pong _ = Shard.post k ~src:1 ~dst:0 ~key:2 ~delay:1 ping in
  (* warm: grow the outboxes and the queues *)
  for _ = 1 to 64 do
    Shard.schedule k ~shard:0 ~delay:0 ignore;
    Shard.schedule k ~shard:1 ~delay:0 ignore
  done;
  Shard.run k;
  left := 3;
  Shard.schedule k ~shard:0 ~delay:0 ping;
  Shard.run k;
  left := rounds;
  Shard.schedule k ~shard:0 ~delay:0 ping;
  let w0 = Gc.minor_words () in
  Shard.run k;
  let w = Gc.minor_words () -. w0 in
  checki "pending" 0 (Shard.pending_events k);
  w

let test_shard_alloc_bound () =
  let few = shard_round_words 16 in
  let many = shard_round_words (16 + alloc_rounds) in
  let per_round = (many -. few) /. float_of_int alloc_rounds in
  Printf.printf
    "shard guard: %.3f minor words per schedule + post + merge + fires\n"
    per_round;
  if per_round > 0.0 then
    Alcotest.failf "%.3f minor words per round, want 0" per_round

(* qcheck: when every event carries a unique non-zero key, each shard's
   execution order is fixed by (time, key) alone, so it cannot depend
   on where the windows fall. Random tokens walk the shards; each hop
   folds its id into its shard's state, logs (time, id, state) and
   posts the next hop with a delay that reads that state, so any change
   of order on a shard changes the logs. A hop may also schedule a
   local event that does nothing but move the windows. The logs must be
   identical under lookahead [la] and 1 (every cross-shard delay is at
   least [la], so both are sound), at domains 1 and 2, and with or
   without the do-nothing events. *)
type hop_step = { to_shard : int; extra : int; idle : int option }

type shard_model = {
  m_shards : int;
  la : int;
  tokens : (int * int * hop_step list) list;  (* shard, time, steps *)
}

let shard_logs ~lookahead ~domains ~idle m =
  let k = Shard.create ~lookahead ~shards:m.m_shards () in
  let logs = Array.make m.m_shards [] in
  let state = Array.make m.m_shards 0 in
  let id tok h = (tok * 64) + h in
  let key_of tok h = (2 * id tok h) + 1 in
  let rec fire tok h s steps e =
    state.(s) <- ((state.(s) * 31) + id tok h) land 0xffffff;
    logs.(s) <- (Engine.now e, id tok h, state.(s)) :: logs.(s);
    match steps with
    | [] -> ()
    | st :: rest ->
        (match st.idle with
        | Some delay when idle ->
            Engine.schedule_keyed e ~key:(key_of tok h + 1)
              ~time:(Engine.now e + delay) ignore
        | _ -> ());
        let delay =
          st.extra + (state.(s) mod 3) + if st.to_shard = s then 0 else m.la
        in
        Shard.post k ~src:s ~dst:st.to_shard ~key:(key_of tok (h + 1)) ~delay
          (fire tok (h + 1) st.to_shard rest)
  in
  List.iteri
    (fun tok (shard, time, steps) ->
      Engine.schedule_keyed (Shard.engine k ~shard) ~key:(key_of tok 0) ~time
        (fire tok 0 shard steps))
    m.tokens;
  Shard.run ~domains k;
  Array.map List.rev logs

let shard_model_gen =
  let open QCheck in
  let gen =
    Gen.(
      let* m_shards = int_range 2 3 in
      let* la = int_range 1 4 in
      let step =
        let+ to_shard = int_bound (m_shards - 1)
        and+ extra = int_bound 2
        and+ idle = opt (int_bound 6) in
        { to_shard; extra; idle }
      in
      let token =
        triple (int_bound (m_shards - 1)) (int_bound 4) (list_size (0 -- 16) step)
      in
      let+ tokens = list_size (1 -- 12) token in
      { m_shards; la; tokens })
  in
  let print m =
    Printf.sprintf "shards=%d la=%d %s" m.m_shards m.la
      (String.concat "; "
         (List.map
            (fun (s, t, steps) ->
              Printf.sprintf "%d@%d:%s" s t
                (String.concat ","
                   (List.map
                      (fun st ->
                        Printf.sprintf "%d+%d%s" st.to_shard st.extra
                          (Option.fold ~none:"" ~some:(Printf.sprintf "/i%d") st.idle))
                      steps)))
            m.tokens))
  in
  make ~print gen

let shard_order_prop =
  QCheck.Test.make ~count:200 ~name:"keyed order independent of windows"
    shard_model_gen (fun m ->
      let base = shard_logs ~lookahead:m.la ~domains:1 ~idle:true m in
      List.for_all
        (fun (lookahead, domains, idle) ->
          shard_logs ~lookahead ~domains ~idle m = base)
        [ (1, 1, true); (m.la, 2, true); (1, 2, true); (m.la, 1, false);
          (1, 2, false) ])

(* qcheck: the same random keyed token walks, each hop also scheduling
   an event with a category chosen by the hop (the "idle" steps, as
   [Engine.schedule ~cat]). Each shard's engine keeps its own profiler
   and registry: after the run, each shard's profiler totals sum to its
   [Engine.now], and every shard's clock, totals and counters are the
   same at domains 1, 2 and 3. *)
let shard_profile ~domains m =
  let k = Shard.create ~lookahead:m.la ~shards:m.m_shards () in
  let cats = Array.of_list Engine.Profiler.categories in
  let rec fire tok h s steps e =
    match steps with
    | [] -> ()
    | st :: rest ->
        Option.iter
          (fun delay ->
            let cat = cats.((tok + h) mod Array.length cats) in
            Engine.schedule e ~cat ~delay ignore)
          st.idle;
        let delay = st.extra + if st.to_shard = s then 0 else m.la in
        Shard.post k ~src:s ~dst:st.to_shard ~key:((tok * 64) + h + 1) ~delay
          (fire tok (h + 1) st.to_shard rest)
  in
  List.iteri
    (fun tok (shard, time, steps) ->
      Engine.schedule_keyed (Shard.engine k ~shard) ~key:(tok * 64) ~time
        (fire tok 0 shard steps))
    m.tokens;
  Shard.run ~domains k;
  List.init m.m_shards (fun shard ->
      let e = Shard.engine k ~shard in
      ( Engine.now e,
        Engine.Profiler.to_list (Engine.profile e),
        Udma_obs.Metrics.counters (Engine.metrics e) ))

let shard_profile_prop =
  QCheck.Test.make ~count:200
    ~name:"per-shard profiler and counters independent of domains"
    shard_model_gen (fun m ->
      let base = shard_profile ~domains:1 m in
      List.for_all
        (fun (now, totals, _) ->
          List.fold_left (fun a (_, c) -> a + c) 0 totals = now)
        base
      && List.for_all (fun domains -> shard_profile ~domains m = base) [ 2; 3 ])

let () =
  Alcotest.run "udma_sim"
    [
      ( "eventq",
        [
          Alcotest.test_case "ordering" `Quick test_eventq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eventq_fifo_ties;
          Alcotest.test_case "key order" `Quick test_eventq_key_order;
          Alcotest.test_case "growth + heap order" `Quick test_eventq_growth;
          Alcotest.test_case "negative time" `Quick test_eventq_negative_time;
          Alcotest.test_case "pop releases payload" `Quick
            test_eventq_pop_releases;
          Alcotest.test_case "clear releases payloads" `Quick
            test_eventq_clear_releases;
          qtest eventq_model_prop;
          Alcotest.test_case "clear" `Quick test_eventq_clear;
          Alcotest.test_case "peek" `Quick test_eventq_peek;
          Alcotest.test_case "push + pop allocation bounded" `Quick
            test_eventq_alloc_bound;
        ] );
      ( "engine",
        [
          Alcotest.test_case "advance" `Quick test_engine_advance;
          Alcotest.test_case "window firing" `Quick test_engine_events_fire_in_window;
          Alcotest.test_case "event timestamps" `Quick test_engine_event_clock;
          Alcotest.test_case "cascading events" `Quick test_engine_cascading_events;
          Alcotest.test_case "schedule_at" `Quick test_engine_schedule_at;
          Alcotest.test_case "run until idle" `Quick test_engine_run_until_idle;
          Alcotest.test_case "wait_for" `Quick test_engine_wait_for;
          Alcotest.test_case "wait_for idle failure" `Quick
            test_engine_wait_for_idle_failure;
          Alcotest.test_case "run_until max_int" `Quick
            test_engine_run_until_max_int;
          Alcotest.test_case "time conversion" `Quick test_engine_time_conversion;
          Alcotest.test_case "step_to refuses" `Quick test_engine_step_to_refuses;
          Alcotest.test_case "step_to nested horizons" `Quick
            test_engine_step_to_nested;
          qtest step_to_prop;
          qtest lane_prop;
          Alcotest.test_case "lane_at + fire allocates nothing" `Quick
            test_lane_alloc_bound;
          Alcotest.test_case "schedule + fire allocation bounded" `Quick
            test_engine_alloc_bound;
          qtest boundary_prop;
          Alcotest.test_case "far boundaries do not pile up" `Quick
            test_far_boundaries_bounded;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_is_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "legacy int stream pinned" `Quick
            test_rng_int_stream_pinned;
          Alcotest.test_case "unbiased stream pinned" `Quick
            test_rng_unbiased_stream_pinned;
          Alcotest.test_case "unbiased bounds" `Quick test_rng_unbiased_bounds;
          Alcotest.test_case "unbiased uniform" `Quick test_rng_unbiased_uniform;
          Alcotest.test_case "substream" `Quick test_rng_substream;
        ] );
      ( "shard",
        [
          Alcotest.test_case "token ring (sequential)" `Quick
            test_shard_ring_sequential;
          Alcotest.test_case "domain-count invariance" `Quick
            test_shard_domain_invariance;
          Alcotest.test_case "lookahead soundness check" `Quick
            test_shard_post_below_lookahead;
          Alcotest.test_case "until + resume" `Quick test_shard_until;
          Alcotest.test_case "until + resume across domains" `Quick
            test_shard_until_resume_domains;
          Alcotest.test_case "raise on a worker domain" `Quick
            test_shard_raise_on_worker;
          Alcotest.test_case "merge order pinned" `Quick
            test_shard_merge_order_pinned;
          qtest shard_order_prop;
          qtest shard_profile_prop;
          Alcotest.test_case "a lane inside a shard" `Quick test_shard_lane;
          Alcotest.test_case "schedule + post + merge + fire allocate nothing"
            `Quick test_shard_alloc_bound;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basic" `Quick test_trace_basic;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "matching" `Quick test_trace_matching;
          Alcotest.test_case "capacity" `Quick test_trace_capacity;
          Alcotest.test_case "sinks" `Quick test_trace_sinks;
        ] );
    ]
