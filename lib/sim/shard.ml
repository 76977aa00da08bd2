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
   window and are merged into the destination queue at the window
   barrier, sorted by (time, key, src shard, per-src sequence). The
   merge order — and therefore every queue's internal sequence
   numbering — depends only on the window sequence and each shard's
   own deterministic execution, never on how shards are packed onto
   domains. Runs with any [domains] count produce identical event
   orders, which the determinism tests pin down. *)

type msg = {
  m_time : int;
  m_key : int;
  m_src : int;
  m_seq : int;
  m_fn : unit -> unit;
}

(* Shard-indexed hot counters are spread [stride] ints apart so two
   domains never bounce the same cache line while executing. *)
let stride = 8

type t = {
  nshards : int;
  lookahead : int;
  queues : (unit -> unit) Eventq.t array;
  clocks : int array; (* shard s at index s * stride *)
  outbox : msg list ref array; (* src * nshards + dst *)
  out_seq : int array; (* per-src post counter, strided *)
  shard_events : int array; (* per-shard executed count, strided *)
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
    clocks = Array.make (shards * stride) 0;
    outbox = Array.init (shards * shards) (fun _ -> ref []);
    out_seq = Array.make (shards * stride) 0;
    shard_events = Array.make (shards * stride) 0;
    windows = 0;
    running = false;
  }

let shards t = t.nshards
let lookahead t = t.lookahead
let now t ~shard = t.clocks.(shard * stride)
let windows_run t = t.windows

let events_executed t =
  let sum = ref 0 in
  for s = 0 to t.nshards - 1 do
    sum := !sum + t.shard_events.(s * stride)
  done;
  !sum

let messages_posted t =
  let sum = ref 0 in
  for s = 0 to t.nshards - 1 do
    sum := !sum + t.out_seq.(s * stride)
  done;
  !sum

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
      let cell = t.outbox.((src * t.nshards) + dst) in
      let seq = t.out_seq.(src * stride) in
      t.out_seq.(src * stride) <- seq + 1;
      cell := { m_time = time; m_key = key; m_src = src; m_seq = seq; m_fn = fn }
              :: !cell
    end
    else
      (* setup is single-threaded: deliver straight to the queue *)
      Eventq.push t.queues.(dst) ~time ~key fn
  end

(* ---- window machinery -------------------------------------------- *)

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
  let executed = ref 0 in
  while Eventq.min_time q < horizon do
    t.clocks.(s * stride) <- Eventq.min_time q;
    let fn = Eventq.pop_payload q in
    incr executed;
    fn ()
  done;
  t.clocks.(s * stride) <- horizon;
  t.shard_events.(s * stride) <- t.shard_events.(s * stride) + !executed

let msg_compare a b =
  let c = compare a.m_time b.m_time in
  if c <> 0 then c
  else
    let c = compare a.m_key b.m_key in
    if c <> 0 then c
    else
      let c = compare a.m_src b.m_src in
      if c <> 0 then c else compare a.m_seq b.m_seq

(* Merge every outbox aimed at [d] into its queue, in an order that
   depends only on message identity — never on domain packing. *)
let flush_into t d =
  let acc = ref [] in
  for src = 0 to t.nshards - 1 do
    let cell = t.outbox.((src * t.nshards) + d) in
    match !cell with
    | [] -> ()
    | msgs ->
        acc := List.rev_append msgs !acc;
        cell := []
  done;
  match !acc with
  | [] -> ()
  | msgs ->
      List.iter
        (fun m -> Eventq.push t.queues.(d) ~time:m.m_time ~key:m.m_key m.m_fn)
        (List.sort msg_compare msgs)

let horizon_of t ~until g =
  let base = g - (g mod t.lookahead) in
  let h = base + t.lookahead in
  match until with Some u -> min h u | None -> h

let stop_at ~until g =
  g = max_int || (match until with Some u -> g >= u | None -> false)

(* ---- sequential driver ------------------------------------------- *)

let run_seq ?until t =
  let continue_ = ref true in
  while !continue_ do
    let g = range_min t 0 t.nshards in
    if stop_at ~until g then continue_ := false
    else begin
      let horizon = horizon_of t ~until g in
      for s = 0 to t.nshards - 1 do
        exec_window t s ~horizon
      done;
      for d = 0 to t.nshards - 1 do
        flush_into t d
      done;
      t.windows <- t.windows + 1
    end
  done

(* ---- parallel driver --------------------------------------------- *)

(* Sense-reversing barrier with a bounded spin before blocking. On a
   machine with a core per domain the sense flip lands within the spin
   budget and the rendezvous stays in the sub-microsecond range; when
   domains outnumber cores a pure spin would burn whole scheduler
   quanta per window (measured: three orders of magnitude slowdown on
   one core), so a waiter that exhausts the budget parks on a condition
   variable instead. The releaser flips the sense and broadcasts while
   holding the mutex, so a parked waiter either sees the flip before
   sleeping or receives the broadcast — no lost wakeups. *)
type barrier = {
  parties : int;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable count : int; (* protected by [mutex] *)
  sense : bool Atomic.t;
}

let spin_budget = 1_000

let make_barrier parties =
  { parties; mutex = Mutex.create (); cond = Condition.create (); count = 0;
    sense = Atomic.make false }

let barrier_wait b local_sense =
  Mutex.lock b.mutex;
  b.count <- b.count + 1;
  if b.count = b.parties then begin
    b.count <- 0;
    Atomic.set b.sense local_sense;
    Condition.broadcast b.cond;
    Mutex.unlock b.mutex
  end
  else begin
    Mutex.unlock b.mutex;
    let rec spin i =
      if Atomic.get b.sense <> local_sense then
        if i < spin_budget then begin
          Domain.cpu_relax ();
          spin (i + 1)
        end
        else begin
          Mutex.lock b.mutex;
          while Atomic.get b.sense <> local_sense do
            Condition.wait b.cond b.mutex
          done;
          Mutex.unlock b.mutex
        end
    in
    spin 0
  end

let run_par ?until t ~domains =
  let n = t.nshards in
  let d = min domains n in
  let bar = make_barrier d in
  let local_mins = Array.init d (fun _ -> Atomic.make max_int) in
  let next_horizon = Atomic.make 0 in
  let failure = Atomic.make None in
  let worker k =
    let lo = k * n / d and hi = (k + 1) * n / d in
    let sense = ref false in
    let await () =
      sense := not !sense;
      barrier_wait bar !sense
    in
    let continue_ = ref true in
    let wins = ref 0 in
    while !continue_ do
      Atomic.set local_mins.(k) (range_min t lo hi);
      await ();
      (* A: every shard's minimum pending time is published *)
      if k = 0 then begin
        let g =
          Array.fold_left (fun acc a -> min acc (Atomic.get a)) max_int
            local_mins
        in
        if stop_at ~until g || Atomic.get failure <> None then
          Atomic.set next_horizon (-1)
        else Atomic.set next_horizon (horizon_of t ~until g)
      end;
      await ();
      (* B: the window horizon is agreed *)
      let h = Atomic.get next_horizon in
      if h < 0 then continue_ := false
      else begin
        (try
           for s = lo to hi - 1 do
             exec_window t s ~horizon:h
           done
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        await ();
        (* C: all outbox writes for this window are visible *)
        for s = lo to hi - 1 do
          flush_into t s
        done;
        incr wins
        (* no barrier here: each domain only touches its own queues
           until the next round's outbox writes, which happen after
           barrier B of the next round *)
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
    (fun () ->
      if domains = 1 || t.nshards = 1 then run_seq ?until t
      else run_par ?until t ~domains)
