(* Conservative parallel discrete-event kernel.

   The model is partitioned into [nshards] shards, each with its own
   {!Eventq} and clock. Time advances in windows of [lookahead] cycles
   aligned to a global grid: every round the kernel finds the global
   minimum pending timestamp [g], sets the window to
   [floor = g - g mod lookahead, floor + lookahead), and lets every
   shard execute its local events inside the window independently.
   Cross-shard communication must carry at least [lookahead] cycles of
   delay, so an event posted during window k lands at or after window
   k+1's base — no shard can receive a message in its own past, which
   is the whole conservative-synchronization argument.

   Cross-shard posts buffer in per-(src, dst) outboxes during the
   window and are merged into the destination queue before the next
   window, each source's outbox in post order, source by source. The
   queue orders by (time, key, push order), so equal-(time, key)
   messages fire in (src shard, per-src post) order. The merge — and
   therefore every queue's internal push order — depends only on the
   window sequence and each shard's own deterministic execution, never
   on how shards are packed onto domains. Runs with any [domains] count
   produce identical event orders, which the determinism tests pin
   down. *)

(* The messages one source posted to one destination in one window, in
   post order: parallel arrays that double when full. A flushed
   message's closure is overwritten with [noop], so the outbox keeps no
   fired closure alive. *)
type outbox = {
  mutable ob_time : int array;
  mutable ob_key : int array;
  mutable ob_fn : (unit -> unit) array;
  mutable ob_len : int;
}

let noop () = ()

let ob_push ob time key fn =
  let n = ob.ob_len in
  if n = Array.length ob.ob_time then begin
    let grow a fill =
      let a' = Array.make (Int.max 16 (2 * n)) fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    ob.ob_time <- grow ob.ob_time 0;
    ob.ob_key <- grow ob.ob_key 0;
    ob.ob_fn <- grow ob.ob_fn noop
  end;
  ob.ob_time.(n) <- time;
  ob.ob_key.(n) <- key;
  ob.ob_fn.(n) <- fn;
  ob.ob_len <- n + 1

(* Each shard owns a block of [stride] ints in [hot], so two domains
   never bounce the same cache line while executing. Offsets: *)
let stride = 8
let h_clock = 0 (* the shard clock *)
let h_events = 1 (* events executed *)
let h_posts = 2 (* cross-shard messages posted *)
let h_post_min = 3 (* earliest time posted this window *)
let h_pair = 4 (* this window's (parity, src) pair: parity * nshards + src *)

(* ---- barrier ------------------------------------------------------ *)

(* Sense-reversing barrier. Arrival is one atomic fetch-and-add; the
   last party to arrive resets the count and flips the sense. A waiter
   spins a bounded number of times before parking. On a machine with a
   core per domain the flip lands within the spin budget and the
   rendezvous stays in the sub-microsecond range; when domains
   outnumber cores a pure spin would burn whole scheduler quanta per
   window (measured: three orders of magnitude slowdown on one core),
   so a waiter that exhausts the budget parks on a condition variable
   instead. The mutex is taken only to park and to wake parked
   waiters. A waiter counts itself in [parked] before it re-checks the
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

let make_barrier () =
  { parties = 1; arrived = Atomic.make 0; sense = Atomic.make false;
    parked = Atomic.make 0; mutex = Mutex.create ();
    cond = Condition.create () }

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
  queues : (unit -> unit) Eventq.t array;
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
  {
    nshards = shards;
    lookahead;
    queues = Array.init shards (fun _ -> Eventq.create ());
    hot = Array.make (shards * stride) 0;
    outbox =
      Array.init (2 * shards * shards) (fun _ ->
          { ob_time = [||]; ob_key = [||]; ob_fn = [||]; ob_len = 0 });
    posted_to = Array.make (2 * shards * (shards + 1)) 0;
    barrier = make_barrier ();
    mins = Array.make (2 * shards * stride) max_int;
    windows = 0;
    running = false;
  }

let now t ~shard = t.hot.((shard * stride) + h_clock)
let windows_run t = t.windows

let sum_hot t field =
  let sum = ref 0 in
  for s = 0 to t.nshards - 1 do
    sum := !sum + t.hot.((s * stride) + field)
  done;
  !sum

let events_executed t = sum_hot t h_events
let messages_posted t = sum_hot t h_posts

let pending_events t =
  Array.fold_left (fun acc q -> acc + Eventq.length q) 0 t.queues

let check_shard t name shard =
  if shard < 0 || shard >= t.nshards then
    invalid_arg (Printf.sprintf "Shard.%s: shard %d out of range" name shard)

let schedule_at t ~shard ~time ?key fn =
  check_shard t "schedule_at" shard;
  if time < now t ~shard then
    invalid_arg "Shard.schedule_at: time before the shard clock";
  Eventq.push t.queues.(shard) ~time ?key fn

let schedule t ~shard ?key ~delay fn =
  if delay < 0 then invalid_arg "Shard.schedule: negative delay";
  schedule_at t ~shard ~time:(now t ~shard + delay) ?key fn

let post t ~src ~dst ?(key = 0) ~delay fn =
  check_shard t "post" src;
  check_shard t "post" dst;
  if src = dst then schedule t ~shard:src ~key ~delay fn
  else begin
    if delay < t.lookahead then
      invalid_arg
        (Printf.sprintf
           "Shard.post: cross-shard delay %d below lookahead %d (the \
            conservative window would be unsound)"
           delay t.lookahead);
    let time = now t ~shard:src + delay in
    if t.running then begin
      let b = src * stride in
      let pair = t.hot.(b + h_pair) in
      let ob = t.outbox.((pair * t.nshards) + dst) in
      if ob.ob_len = 0 then begin
        let row = pair * (t.nshards + 1) in
        let c = t.posted_to.(row) + 1 in
        t.posted_to.(row) <- c;
        t.posted_to.(row + c) <- dst
      end;
      ob_push ob time key fn;
      t.hot.(b + h_posts) <- t.hot.(b + h_posts) + 1;
      if time < t.hot.(b + h_post_min) then t.hot.(b + h_post_min) <- time
    end
    else
      (* setup is single-threaded: deliver straight to the queue *)
      Eventq.push t.queues.(dst) ~time ~key fn
  end

(* ---- window machinery -------------------------------------------- *)

let[@inline] imin (a : int) b = if a < b then a else b

let range_min t lo hi =
  let m = ref max_int in
  for s = lo to hi - 1 do
    let u = Eventq.min_time t.queues.(s) in
    if u < !m then m := u
  done;
  !m

(* An empty queue's [min_time] is [max_int], which no horizon exceeds,
   so the strict test also stops there. *)
let exec_window t s ~horizon =
  let q = t.queues.(s) in
  let b = s * stride in
  let executed = ref 0 in
  while Eventq.min_time q < horizon do
    t.hot.(b + h_clock) <- Eventq.min_time q;
    let fn = Eventq.pop_payload q in
    incr executed;
    fn ()
  done;
  t.hot.(b + h_clock) <- horizon;
  t.hot.(b + h_events) <- t.hot.(b + h_events) + !executed

(* Run one window on shards [lo, hi), posting into the outboxes of
   [parity]. Returns the earliest time the block left pending: the
   minimum of its queues after the window and of every time it
   posted. *)
let exec_block t ~parity ~horizon lo hi =
  let m = ref max_int in
  for s = lo to hi - 1 do
    let b = s * stride in
    let pair = (parity * t.nshards) + s in
    t.hot.(b + h_pair) <- pair;
    t.posted_to.(pair * (t.nshards + 1)) <- 0;
    t.hot.(b + h_post_min) <- max_int;
    exec_window t s ~horizon;
    m := imin !m (imin (Eventq.min_time t.queues.(s)) t.hot.(b + h_post_min))
  done;
  !m

(* Merge every outbox of [parity] aimed at a shard of [lo, hi) into
   its queue: source by source, each outbox in post order. Only the
   destinations a source posted to are visited. *)
let flush_block t ~parity lo hi =
  let n = t.nshards in
  for src = 0 to n - 1 do
    let pair = (parity * n) + src in
    let row = pair * (n + 1) in
    for j = 1 to t.posted_to.(row) do
      let d = t.posted_to.(row + j) in
      if d >= lo && d < hi then begin
        let ob = t.outbox.((pair * n) + d) in
        let q = t.queues.(d) in
        for i = 0 to ob.ob_len - 1 do
          Eventq.push q ~time:ob.ob_time.(i) ~key:ob.ob_key.(i) ob.ob_fn.(i);
          ob.ob_fn.(i) <- noop
        done;
        ob.ob_len <- 0
      end
    done
  done

let horizon_of t ~until g =
  let base = g - (g mod t.lookahead) in
  let h = base + t.lookahead in
  match until with Some u -> imin h u | None -> h

let stop_at ~until g =
  g = max_int || (match until with Some u -> g >= u | None -> false)

(* ---- driver ------------------------------------------------------- *)

(* The shards are split into [d] contiguous blocks, one domain each
   ([d = 1] runs on the calling domain alone). Window k is one round:

   1. merge the outboxes of parity [k mod 2] aimed at the block;
   2. read every domain's published minimum of parity [k mod 2] and
      take [g], their minimum; stop if [g] says so;
   3. execute the window, posting into the outboxes of parity
      [(k + 1) mod 2];
   4. publish the block's minimum (queues after the window and every
      time posted) at parity [(k + 1) mod 2], then meet at the barrier.

   That is one barrier per window. The published minima together cover
   every queue after the merge of step 1, so every domain computes the
   same [g] the merged queues would give, and the same stop decision.
   Double-buffering by parity is what makes one barrier enough. The
   outboxes and minima of parity [(k + 1) mod 2] are written in window
   k, before barrier k, and read in steps 1-2 of window k + 1. While a
   domain still does those reads, a faster one can only be executing
   window k + 1, which writes the other parity; the next writes to
   parity [(k + 1) mod 2] come in window k + 2, after barrier k + 1,
   which no domain passes before every domain has done its reads. The
   minima of window 0 are computed before any domain starts. An event
   that raises makes its domain publish [-1], which stops every domain
   at the same window. *)
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
  let failure = Atomic.make None in
  let worker k =
    let lo, hi = block k in
    let sense = ref false in
    let parity = ref 0 in
    let wins = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let p = !parity in
      flush_block t ~parity:p lo hi;
      let g = ref max_int in
      for j = 0 to d - 1 do
        g := imin !g mins.(((p * d) + j) * stride)
      done;
      if !g < 0 || stop_at ~until !g then continue_ := false
      else begin
        let p' = 1 - p in
        let m =
          try exec_block t ~parity:p' ~horizon:(horizon_of t ~until !g) lo hi
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
    if k = 0 then t.windows <- t.windows + !wins
  in
  let spawned =
    Array.init (d - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  Array.iter Domain.join spawned;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run ?(domains = 1) ?until t =
  if domains < 1 then invalid_arg "Shard.run: domains must be >= 1";
  if t.running then invalid_arg "Shard.run: already running";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () -> run_windows ?until t ~domains)
