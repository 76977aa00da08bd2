(* Conservative parallel discrete-event kernel: one {!Engine} per shard,
   plus what only a parallel kernel needs — grid windows, per-(src, dst)
   outboxes, the barrier and the domain blocks. The interface states
   the model and why any [domains] count gives the same event order;
   the comments here cover the machinery. *)

module Metrics = Udma_obs.Metrics

(* The messages one source posted to one destination in one window, in
   post order: (time, key) pairs in [ob_tk], events in [ob_ev], doubling
   when full. A merged message's slot gets [noop], so the outbox keeps
   no fired closure alive. *)
type outbox = {
  mutable ob_tk : int array;
  mutable ob_ev : Engine.event array;
  mutable ob_len : int;
}

let noop _ = ()

let ob_push ob time key ev =
  let n = ob.ob_len in
  if n = Array.length ob.ob_ev then begin
    let tk = Array.make (Int.max 32 (4 * n)) 0 in
    let evs = Array.make (Int.max 16 (2 * n)) noop in
    Array.blit ob.ob_tk 0 tk 0 (2 * n);
    Array.blit ob.ob_ev 0 evs 0 n;
    ob.ob_tk <- tk;
    ob.ob_ev <- evs
  end;
  ob.ob_tk.(2 * n) <- time;
  ob.ob_tk.((2 * n) + 1) <- key;
  ob.ob_ev.(n) <- ev;
  ob.ob_len <- n + 1

(* Each shard owns a block of [stride] ints in [hot], so two domains
   never bounce the same cache line while executing. Offsets: *)
let stride = 8
let h_posts = 0 (* cross-shard messages posted *)
let h_post_min = 1 (* earliest time posted this window *)
let h_pair = 2 (* this window's (parity, src) pair: parity * nshards + src *)

(* Sense-reversing barrier. Arrival is one atomic fetch-and-add; the
   last party to arrive resets the count and flips the sense. A waiter
   spins a bounded number of times, then parks on a condition variable:
   when domains outnumber cores a pure spin burns whole scheduler
   quanta per window (measured: three orders of magnitude slower on one
   core). A waiter counts itself in [parked] before it re-checks the
   sense under the mutex, and the releaser flips the sense before it
   reads [parked]; so either the releaser sees the waiter and
   broadcasts under the mutex, or the waiter sees the flip. No wakeup
   is lost. *)
type barrier = {
  mutable parties : int;
  arrived : int Atomic.t;
  sense : bool Atomic.t;
  parked : int Atomic.t;
  mutex : Mutex.t;
  cond : Condition.t;
}

let spin_budget = 1_000

let barrier_wait b local_sense =
  if Atomic.fetch_and_add b.arrived 1 = b.parties - 1 then begin
    Atomic.set b.arrived 0;
    Atomic.set b.sense local_sense;
    if Atomic.get b.parked > 0 then begin
      Mutex.lock b.mutex;
      Condition.broadcast b.cond;
      Mutex.unlock b.mutex
    end
  end
  else begin
    let spins = ref 0 in
    while Atomic.get b.sense <> local_sense && !spins < spin_budget do
      Domain.cpu_relax ();
      incr spins
    done;
    if Atomic.get b.sense <> local_sense then begin
      Atomic.incr b.parked;
      Mutex.lock b.mutex;
      while Atomic.get b.sense <> local_sense do
        Condition.wait b.cond b.mutex
      done;
      Mutex.unlock b.mutex;
      Atomic.decr b.parked
    end
  end

type t = {
  nshards : int;
  lookahead : int;
  engines : Engine.t array;
  hot : int array;
  outbox : outbox array; (* pair * nshards + dst *)
  posted_to : int array;
      (* row [pair * (nshards + 1)]: the number of destinations the pair
         posted to, then those destinations in first-post order *)
  barrier : barrier;
  mins : int array; (* per-domain window minima; see [run_windows] *)
  mutable windows : int;
  mutable running : bool;
}

let create ?(lookahead = 1) ~shards () =
  if shards <= 0 then invalid_arg "Shard.create: shards must be positive";
  if lookahead <= 0 then invalid_arg "Shard.create: lookahead must be positive";
  let barrier =
    { parties = 1; arrived = Atomic.make 0; sense = Atomic.make false;
      parked = Atomic.make 0; mutex = Mutex.create ();
      cond = Condition.create () }
  in
  { nshards = shards; lookahead;
    engines = Array.init shards (fun _ -> Engine.create ());
    hot = Array.make (shards * stride) 0;
    outbox =
      Array.init (2 * shards * shards) (fun _ ->
          { ob_tk = [||]; ob_ev = [||]; ob_len = 0 });
    posted_to = Array.make (2 * shards * (shards + 1)) 0;
    barrier; mins = Array.make (2 * shards * stride) max_int;
    windows = 0; running = false }

let check_shard t name shard =
  if shard < 0 || shard >= t.nshards then
    invalid_arg (Printf.sprintf "Shard.%s: shard %d out of range" name shard)

let engine t ~shard =
  check_shard t "engine" shard;
  t.engines.(shard)

let windows_run t = t.windows
let sum t f = Array.fold_left (fun acc e -> acc + f e) 0 t.engines
let pending_events t = sum t Engine.pending_events

let events_executed t =
  sum t (fun e -> Metrics.get (Engine.metrics e) "engine.events_fired")

let messages_posted t =
  let n = ref 0 in
  Array.iteri (fun s _ -> n := !n + t.hot.((s * stride) + h_posts)) t.engines;
  !n

let schedule t ~shard ?(key = 0) ~delay ev =
  if delay < 0 then invalid_arg "Shard.schedule: negative delay";
  let e = engine t ~shard in
  Engine.schedule_keyed e ~key ~time:(Engine.now e + delay) ev

let post t ~src ~dst ~key ~delay ev =
  check_shard t "post" src;
  check_shard t "post" dst;
  let time = Engine.now t.engines.(src) + delay in
  if src = dst then begin
    if delay < 0 then invalid_arg "Shard.post: negative delay";
    Engine.schedule_keyed t.engines.(src) ~key ~time ev
  end
  else if delay < t.lookahead then
    invalid_arg
      (Printf.sprintf
         "Shard.post: cross-shard delay %d below lookahead %d (the \
          conservative window would be unsound)"
         delay t.lookahead)
  else if not t.running then
    (* setup is single-threaded: deliver straight to the engine *)
    Engine.schedule_keyed t.engines.(dst) ~key ~time ev
  else begin
    let b = src * stride in
    let pair = t.hot.(b + h_pair) in
    let ob = t.outbox.((pair * t.nshards) + dst) in
    if ob.ob_len = 0 then begin
      let row = pair * (t.nshards + 1) in
      let c = t.posted_to.(row) + 1 in
      t.posted_to.(row) <- c;
      t.posted_to.(row + c) <- dst
    end;
    ob_push ob time key ev;
    t.hot.(b + h_posts) <- t.hot.(b + h_posts) + 1;
    if time < t.hot.(b + h_post_min) then t.hot.(b + h_post_min) <- time
  end

let[@inline] imin (a : int) b = if a < b then a else b

let range_min t lo hi =
  let m = ref max_int in
  for s = lo to hi - 1 do
    m := imin !m (Engine.next_event_time t.engines.(s))
  done;
  !m

(* Run one window on shards [lo, hi), posting into the outboxes of
   [parity]: each engine with an event before [horizon] fires every
   event strictly before it and moves its clock there; an engine with
   none is left alone (see [run_windows] for its clock). Returns the
   earliest time the block left pending: the minimum of its engines
   after the window and of every time it posted. *)
let exec_block t ~parity ~horizon lo hi =
  let m = ref max_int in
  for s = lo to hi - 1 do
    let b = s * stride in
    let pair = (parity * t.nshards) + s in
    t.hot.(b + h_pair) <- pair;
    t.posted_to.(pair * (t.nshards + 1)) <- 0;
    t.hot.(b + h_post_min) <- max_int;
    let e = t.engines.(s) in
    if Engine.next_event_time e < horizon then Engine.run_before e horizon;
    m := imin !m (imin (Engine.next_event_time e) t.hot.(b + h_post_min))
  done;
  !m

(* Merge every outbox of [parity] aimed at a shard of [lo, hi) into its
   engine: source by source, each outbox in post order. Only the
   destinations a source posted to are visited. *)
let flush_block t ~parity lo hi =
  let n = t.nshards in
  for src = 0 to n - 1 do
    let pair = (parity * n) + src in
    let row = pair * (n + 1) in
    for j = 1 to t.posted_to.(row) do
      let d = t.posted_to.(row + j) in
      if d >= lo && d < hi then begin
        let ob = t.outbox.((pair * n) + d) and e = t.engines.(d) in
        for i = 0 to ob.ob_len - 1 do
          Engine.schedule_keyed e ~time:ob.ob_tk.(2 * i)
            ~key:ob.ob_tk.((2 * i) + 1) ob.ob_ev.(i);
          ob.ob_ev.(i) <- noop
        done;
        ob.ob_len <- 0
      end
    done
  done

(* The shards are split into [d] contiguous blocks, one domain each
   ([d = 1] runs on the calling domain alone). Window k is one round:

   1. merge the outboxes of parity [k mod 2] aimed at the block;
   2. read every domain's published minimum of parity [k mod 2] and
      take [g], their minimum; stop if [g] says so;
   3. run the window [g - g mod lookahead, + lookahead) (cut at
      [until]), posting into the outboxes of parity [(k + 1) mod 2];
   4. publish the block's minimum (engines after the window and every
      time posted) at parity [(k + 1) mod 2], then meet at the barrier.

   That is one barrier per window. The published minima together cover
   every engine after the merge of step 1, so every domain computes the
   same [g], and the same stop decision. Double-buffering by parity is
   what makes one barrier enough: the outboxes and minima of parity
   [(k + 1) mod 2] are written in window k, before barrier k, and read
   in steps 1-2 of window k + 1; the next writes to them come in window
   k + 2, after barrier k + 1, which no domain passes before every
   domain has done its reads. The minima of window 0 are computed
   before any domain starts. An event that raises makes its domain
   publish [-1], which stops every domain at the same window.

   A shard idle for a window keeps its clock where it was. Once the
   last window has run, every clock moves to that window's end: a
   [schedule] or [post] made between runs is timed from the clock, and
   must not land before what the other shards have already run. *)
let run_windows ?until t ~domains =
  let n = t.nshards in
  let d = Int.min domains n in
  (* a previous run may have left the sense flipped *)
  t.barrier.parties <- d;
  Atomic.set t.barrier.sense false;
  let block k = (k * n / d, (k + 1) * n / d) in
  (* domain k's minimum of parity p at [(p * d + k) * stride] *)
  let mins = t.mins in
  (* window 0 merges parity 0, which nothing has posted to in this run *)
  for src = 0 to n - 1 do
    t.posted_to.(src * (n + 1)) <- 0
  done;
  for k = 0 to d - 1 do
    let lo, hi = block k in
    mins.(k * stride) <- range_min t lo hi
  done;
  let failure = Atomic.make None and last = ref (-1) in
  let worker k =
    let lo, hi = block k in
    let sense = ref false and parity = ref 0 and wins = ref 0 in
    let horizon = ref (-1) and continue_ = ref true in
    while !continue_ do
      let p = !parity in
      flush_block t ~parity:p lo hi;
      let g = ref max_int in
      for j = 0 to d - 1 do
        g := imin !g mins.(((p * d) + j) * stride)
      done;
      let stop = match until with Some u -> !g >= u | None -> false in
      if !g < 0 || !g = max_int || stop then continue_ := false
      else begin
        let p' = 1 - p in
        let h = !g - (!g mod t.lookahead) + t.lookahead in
        horizon := (match until with Some u -> imin h u | None -> h);
        let m =
          try exec_block t ~parity:p' ~horizon:!horizon lo hi
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            -1
        in
        mins.(((p' * d) + k) * stride) <- m;
        sense := not !sense;
        barrier_wait t.barrier !sense;
        parity := p';
        incr wins
      end
    done;
    if k = 0 then begin
      t.windows <- t.windows + !wins;
      last := !horizon
    end
  in
  let spawned =
    Array.init (d - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  Array.iter Domain.join spawned;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
      if !last >= 0 then Array.iter (fun e -> Engine.run_before e !last) t.engines

let run ?(domains = 1) ?until t =
  if domains < 1 then invalid_arg "Shard.run: domains must be >= 1";
  if t.running then invalid_arg "Shard.run: already running";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () -> run_windows ?until t ~domains)
