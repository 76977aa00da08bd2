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

(* qcheck: an interleaved push/pop/clear trace agrees with a sorted-list
   reference model — global time order, and among equal (time, key) the
   push order (FIFO). *)
let qtest = QCheck_alcotest.to_alcotest

type eventq_op = Push of int * int | Pop | Clear

let eventq_model_prop =
  let open QCheck in
  let gen_op =
    Gen.(
      frequency
        [
          (6, map2 (fun t k -> Push (t, k)) (int_bound 20) (int_bound 3));
          (3, return Pop);
          (1, return Clear);
        ])
  in
  let print_op = function
    | Push (t, k) -> Printf.sprintf "push(t=%d,k=%d)" t k
    | Pop -> "pop"
    | Clear -> "clear"
  in
  let arb = make ~print:(Print.list print_op) Gen.(list_size (1 -- 60) gen_op) in
  Test.make ~count:500 ~name:"Eventq trace = sorted-list model" arb (fun ops ->
      let q = Eventq.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Push (t, k) ->
              let id = !next_id in
              incr next_id;
              Eventq.push q ~time:t ~key:k id;
              (* stable sort keeps push order among equal (time, key) *)
              model :=
                List.stable_sort
                  (fun (t1, k1, _) (t2, k2, _) -> compare (t1, k1) (t2, k2))
                  (!model @ [ (t, k, id) ])
          | Pop -> (
              match (Eventq.pop q, !model) with
              | None, [] -> ()
              | Some (t, id), (mt, _, mid) :: rest ->
                  if t <> mt || id <> mid then ok := false else model := rest
              | Some _, [] | None, _ :: _ -> ok := false)
          | Clear ->
              Eventq.clear q;
              model := [])
        ops;
      !ok && Eventq.length q = List.length !model)

(* ---------- Engine ---------- *)

let test_engine_advance () =
  let e = Engine.create () in
  checki "starts at 0" 0 (Engine.now e);
  Engine.advance e 100;
  checki "advanced" 100 (Engine.now e)

let test_engine_events_fire_in_window () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:50 (fun _ -> fired := 50 :: !fired);
  Engine.schedule e ~delay:150 (fun _ -> fired := 150 :: !fired);
  Engine.advance e 100;
  Alcotest.(check (list int)) "only due events" [ 50 ] !fired;
  Engine.advance e 100;
  Alcotest.(check (list int)) "the rest" [ 150; 50 ] !fired

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

let test_engine_wait_for () =
  let e = Engine.create () in
  let flag = ref false in
  Engine.schedule e ~delay:1000 (fun _ -> flag := true);
  let polls = Engine.wait_for e ~poll_cost:2 (fun () -> !flag) in
  checkb "condition met" true !flag;
  checkb "polled at least once" true (polls >= 1);
  checkb "clock advanced to the event" true (Engine.now e >= 1000)

let test_engine_wait_for_idle_failure () =
  let e = Engine.create () in
  Alcotest.check_raises "impossible condition"
    (Failure "Engine.wait_for: condition can never become true (idle)")
    (fun () -> ignore (Engine.wait_for e (fun () -> false)))

let test_engine_time_conversion () =
  let e = Engine.create ~mhz:100 () in
  Alcotest.(check (float 0.001)) "10 ns per cycle at 100 MHz" 10.0
    (Engine.ns_of_cycles e 1);
  Alcotest.(check (float 0.001)) "us" 1.0 (Engine.us_of_cycles e 100)

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
  let rec arrive hop s () =
    traces.(s) := (hop, Shard.now k ~shard:s) :: !(traces.(s));
    if hop < hops then
      let d = (s + 1) mod shards in
      Shard.post k ~src:s ~dst:d ~delay:(5 + (hop mod 3)) (arrive (hop + 1) d)
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
      Shard.post k ~src:0 ~dst:1 ~delay:3 (fun () -> ()));
  (* the same delay within a shard is fine: no window boundary crossed *)
  Shard.post k ~src:0 ~dst:0 ~delay:3 (fun () -> ());
  checki "local short post queued" 1 (Shard.pending_events k)

let test_shard_until () =
  let k = Shard.create ~lookahead:10 ~shards:2 () in
  let fired = ref [] in
  List.iter
    (fun t -> Shard.schedule_at k ~shard:0 ~time:t (fun () -> fired := t :: !fired))
    [ 3; 12; 40 ];
  Shard.run ~until:20 k;
  Alcotest.(check (list int)) "only events before the cut" [ 12; 3 ] !fired;
  checki "later event still pending" 1 (Shard.pending_events k);
  Shard.run k;
  Alcotest.(check (list int)) "resume drains the rest" [ 40; 12; 3 ] !fired

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
          Alcotest.test_case "time conversion" `Quick test_engine_time_conversion;
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
