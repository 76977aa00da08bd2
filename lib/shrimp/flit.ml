(* The flit crossing: a cycle-by-cycle wormhole network. A packet
   decomposes into head/body/tail flits that cross the mesh one link
   per flit-cycle through per-(link, VC) input FIFOs with per-flit-slot
   credits. This module owns every decision of that model: worms, input
   FIFOs, the active-set worklists, the flit clock, the F1 oracle and
   the flit stats and occupancy profile.

   Every grant is one arbitration. Links with nothing to do but wait
   sleep until the first cycle they could act at, and count the stall
   cycles they skip when they wake or are read, so every number a
   reader sees is the one a visit of every link per flit-cycle gives.

   The per-flit-cycle loop allocates nothing. A FIFO entry is a run of
   one worm's flits held in parallel [int] arrays; worms live in a
   struct-of-arrays table; the worklists and the wake ring are bitsets;
   the flit counters are plain fields published to [Metrics] on
   read. *)

module Engine = Udma_sim.Engine
module Metrics = Udma_obs.Metrics
open Mesh.Types

(* A flit is (worm id, flit index) packed in one int: 0 = head,
   [w_flits - 1] = tail. *)
let idx_bits = 31
let idx_mask = (1 lsl idx_bits) - 1
let pack w i = (w lsl idx_bits) lor i
let worm_of f = f lsr idx_bits
let idx_of f = f land idx_mask

(* A FIFO entry's flit count and ready-cycle spacing share one int. *)
let run_bits = 32
let count_of r = r lsr run_bits
let gap_of r = r land ((1 lsl run_bits) - 1)

(* Index of the lowest set bit of a non-zero word of at most 32 bits:
   the isolated bit times a de Bruijn constant leaves a distinct
   pattern in the top 5 of the low 32 bits. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] ctz x =
  Char.code (String.unsafe_get debruijn ((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

(* One FIFO: a node's injection FIFO ([fb_vc = -1], unlimited, no
   credits) or one (link, VC) input FIFO on the deposit side of a
   directed link. The queue is a ring of entries, each a run of
   consecutive flits of one worm: its first flit (packed), the flit
   count and the cycles between the flits' ready cycles (packed), the
   first flit's ready cycle, and the next hop the flits will traverse
   (|path| once at their destination). The record keeps to 15 fields
   on purpose: OCaml 5 gives each object size class its own 32 KB
   heap pool, and at 16 it opened one more per run. The ring doubles when full (an unlimited
   FIFO grows). A push extends the last entry when the flit follows it
   at its spacing, so a worm crossing at the wire rate fills one entry;
   a pop advances the front entry in place. An injection FIFO holds one
   entry per queued worm, every flit ready at once (spacing 0).
   [fb_len] counts flits, [fb_n] entries. [fb_capacity] flit slots
   (-1 = unlimited); [fb_credits] is the credit counter the sender side
   spends one of per flit pushed and the receiver returns one of per
   flit popped, so [credits + occupancy = capacity] at every flit-cycle
   — half of the F1 conservation oracle. [fb_owner] is the id of the
   worm whose head claimed this VC (freed when its tail pops out), so
   an input FIFO holds one worm at a time. [fb_pos] is the FIFO's
   position among the input units of the node it feeds, its bit in that
   node's links' waiter masks. *)
type fbuf = {
  fb_vc : int;
  fb_pos : int;
  fb_link : int;                    (* the link it is the input FIFO of; -1: injection *)
  fb_capacity : int;
  mutable fb_credits : int;
  mutable fb_owner : int;
  mutable fb_max_occ : int;
  mutable fb_grants : int;
  mutable fb_flit : int array;
  mutable fb_run : int array;       (* count lsl [run_bits] lor spacing *)
  mutable fb_ready : int array;
  mutable fb_hop : int array;
  mutable fb_head : int;            (* ring slot of the front entry *)
  mutable fb_n : int;               (* entries *)
  mutable fb_len : int;             (* flits: the occupancy *)
}

(* The wire state of one mesh link ([ml]). Its input units — the
   competitors for the wire — are the source node's injection FIFO
   followed by each incoming link's input FIFOs in (src, dst, vc)
   order; [waiters] has bit [fb_pos] set for each unit whose front
   flit is routed over this wire. A waiting wire ([asleep]) leaves the
   active set until the wake ring brings it back at [wake_cycle]. The
   rest is its stall cycles' bookkeeping: the ticks before
   [sleep_from] are counted ([sleep_base] of them by then), and from
   [sleep_from] on every tick at or after [stall_from] is a stall the
   wire has not yet counted, a head-of-line cycle too at or after
   [hol_from] ([max_int]: never). *)
type link = {
  ml : Mesh.link;
  idx : int;                        (* position in [arr] *)
  bufs : fbuf array;                (* input FIFOs at the link's dst, per VC *)
  mutable units : fbuf array;       (* competitors for this wire *)
  mutable waiters : int;
  mutable rr : int;                 (* rr pointer over [units] *)
  mutable vc_rr : int;              (* rr pointer for head-flit VC grants *)
  vc_free : int -> bool;            (* VC unowned and credited: a head may take it *)
  mutable occ : int;                (* cycles a flit holds the wire, for its fault *)
  mutable wire_free : int;
  mutable busy_listed : bool;       (* in [busy] *)
  mutable hol_cycles : int;         (* stall cycles while the wire was free *)
  mutable asleep : bool;
  mutable wake_cycle : int;
  mutable sleep_from : int;
  mutable sleep_base : int;         (* ticks through [sleep_from - 1] *)
  mutable stall_from : int;
  mutable hol_from : int;
  mutable ej_sleep : bool;          (* its ejection waits on [ewake] *)
}

(* A set of link indices drained in ascending order, one pass per
   flit-cycle — the active set of the flit clock. Marking an index
   ahead of the pass cursor queues it later in the same pass; marking
   one at or behind the cursor defers it to the next pass, which is
   exactly when a full in-order sweep of every link would next reach
   it. Two bitsets of 32-bit words hold the members; between passes
   the deferred ones are all in [wl_cur]. *)
type worklist = {
  mutable wl_cur : int array;       (* members due this pass, all > cursor *)
  mutable wl_next : int array;      (* members due next pass *)
  mutable wl_cursor : int;          (* index being visited; -1 between passes *)
}

type t = {
  m : Mesh.t;
  arr : link array;                 (* every directed link, (src, dst) order *)
  index : (int * int, int) Hashtbl.t;  (* (src, dst) -> position in [arr] *)
  paths : (int, int array) Hashtbl.t;  (* src * nodes + dst -> link indices *)
  inject : fbuf array;              (* per-source injection FIFOs *)
  mutable injected : int;
  mutable delivered : int;
  mutable last_tick : int;
  mutable tick_ev : Engine.event;   (* the one flit-clock event *)
  arb : worklist;          (* links some queue's front flit waits for *)
  eject : worklist;        (* links with a front flit at its destination *)
  busy : int array;        (* links whose wire may still be busy *)
  mutable busy_n : int;
  mutable min_ready : int; (* earliest future ready cycle seen this tick *)
  occ_now : int array;     (* per-VC flits buffered, kept running *)
  occ_sum : float array;   (* per-VC occupancy, summed per tick *)
  occ_max : int array;
  mutable occ_cycles : int;
  (* Sleeping links. The rings hold [span] cycles. [wake] is a bitset
     of links per cycle, the visits sleeping wires are due; [due] marks
     the cycles a tick is due at for a front's ready cycle no visit is
     due at; [ticks] holds, per cycle, the ticks at or before it, which
     is how a waking wire counts the stall cycles it slept through. *)
  span : int;                       (* a power of two *)
  words : int;                      (* bitset words per cycle *)
  wake : int array;                 (* cycle slot * words + word *)
  ewake : int array;                (* the same for ejection links *)
  due : int array;                  (* cycle slot -> 1: a tick is due *)
  ticks : int array;
  mutable sleeping : int;
  (* the worm table, indexed by worm id; a free id is on [w_free] *)
  max_hops : int;
  mutable w_pkt : Packet.t array;
  mutable w_flits : int array;
  mutable w_path : int array array;
  mutable w_vcs : int array;        (* id * max_hops + hop -> VC, -1 until the head crosses *)
  mutable w_free : int array;
  mutable w_free_n : int;
  (* counts not yet published to the registry (see [publish]) *)
  mutable n_injected : int;
  mutable n_grants : int;
  mutable n_delivered : int;
  mutable n_stalls : int;
  mutable n_hol : int;
  mutable n_busy : int;
  mutable busy_touched : bool;      (* a grant bumped busy_cycles, even by 0 *)
  mutable n_dead_retries : int;
  mutable occ_hist : int array;     (* per-grant occupancy -> samples *)
  mutable occ_hist_hi : int;        (* highest occupancy sampled *)
  (* the work census, never published: wires visited, ejection links
     visited *)
  mutable n_visits : int;
  mutable n_eject_visits : int;
  c_injected : Metrics.counter;
  c_grants : Metrics.counter;
  c_delivered : Metrics.counter;
  c_stalls : Metrics.counter;
  c_hol : Metrics.counter;
  c_busy : Metrics.counter;
  c_dead_retries : Metrics.counter;
  c_dead_crossings : Metrics.counter;
  s_occupancy : Metrics.sampler;
}

(* ---- Rings ---- *)

let ring_create ~vc ~pos ~link ~capacity =
  let size = 2 in
  { fb_vc = vc; fb_pos = pos; fb_link = link; fb_capacity = capacity; fb_credits = capacity;
    fb_owner = -1; fb_max_occ = 0; fb_grants = 0;
    fb_flit = Array.make size 0; fb_run = Array.make size 0;
    fb_ready = Array.make size 0;
    fb_hop = Array.make size 0; fb_head = 0; fb_n = 0; fb_len = 0 }

let ring_grow fb =
  let size = Array.length fb.fb_flit in
  let move a =
    let b = Array.make (2 * size) 0 in
    for k = 0 to fb.fb_n - 1 do
      b.(k) <- a.((fb.fb_head + k) land (size - 1))
    done;
    b
  in
  fb.fb_flit <- move fb.fb_flit;
  fb.fb_run <- move fb.fb_run;
  fb.fb_ready <- move fb.fb_ready;
  fb.fb_hop <- move fb.fb_hop;
  fb.fb_head <- 0

(* Append an entry of [count] flits from [flit] on, ready from [ready]
   on every [gap] cycles. *)
let ring_add fb flit count hop ready gap =
  if fb.fb_n = Array.length fb.fb_flit then ring_grow fb;
  let k = (fb.fb_head + fb.fb_n) land (Array.length fb.fb_flit - 1) in
  fb.fb_flit.(k) <- flit;
  fb.fb_run.(k) <- (count lsl run_bits) lor gap;
  fb.fb_hop.(k) <- hop;
  fb.fb_ready.(k) <- ready;
  fb.fb_n <- fb.fb_n + 1;
  fb.fb_len <- fb.fb_len + count

(* Push one flit: it extends the last entry when it is that entry's
   next flit at its spacing (the second flit of an entry sets the
   spacing; ready cycles never decrease along a FIFO). *)
let[@inline] ring_push fb flit hop ready =
  let k = (fb.fb_head + fb.fb_n - 1) land (Array.length fb.fb_flit - 1) in
  let r = fb.fb_run.(k) in
  let c = count_of r in
  if fb.fb_n > 0 && fb.fb_flit.(k) + c = flit
     && (c = 1 || fb.fb_ready.(k) + (c * gap_of r) = ready)
  then begin
    let gap = if c = 1 then ready - fb.fb_ready.(k) else gap_of r in
    fb.fb_run.(k) <- ((c + 1) lsl run_bits) lor gap;
    fb.fb_len <- fb.fb_len + 1
  end
  else ring_add fb flit 1 hop ready 0

(* Drop the front flit: the front entry moves on to its next flit, and
   leaves after its last. *)
let[@inline] ring_pop fb =
  let k = fb.fb_head in
  let r = fb.fb_run.(k) in
  fb.fb_len <- fb.fb_len - 1;
  if count_of r = 1 then begin
    fb.fb_head <- (k + 1) land (Array.length fb.fb_flit - 1);
    fb.fb_n <- fb.fb_n - 1
  end
  else begin
    fb.fb_run.(k) <- r - (1 lsl run_bits);
    fb.fb_flit.(k) <- fb.fb_flit.(k) + 1;
    fb.fb_ready.(k) <- fb.fb_ready.(k) + gap_of r
  end

(* The cycles a flit holds the wire of [l]. *)
let wire_occ (cfg : Mesh.config) (l : Mesh.link) =
  cfg.per_word_cycles * cfg.flit_words * Mesh.occupancy_factor l.l_fault

(* ---- Worklists ---- *)

let wl_create n =
  let words = (n + 31) / 32 in
  { wl_cur = Array.make words 0; wl_next = Array.make words 0; wl_cursor = -1 }

let wl_is_empty w =
  let rec empty a k = k < 0 || (a.(k) = 0 && empty a (k - 1)) in
  let last = Array.length w.wl_cur - 1 in
  empty w.wl_cur last && empty w.wl_next last

let[@inline] wl_mark w i =
  let k = i lsr 5 and b = 1 lsl (i land 31) in
  if (w.wl_cur.(k) lor w.wl_next.(k)) land b = 0 then
    if i > w.wl_cursor then w.wl_cur.(k) <- w.wl_cur.(k) lor b
    else w.wl_next.(k) <- w.wl_next.(k) lor b

(* The next member due in this pass, or -1 once the pass is over (the
   deferred members then become due for the next one). *)
let[@inline] wl_take w =
  let cur = w.wl_cur in
  let n = Array.length cur in
  let k = ref (if w.wl_cursor < 0 then 0 else w.wl_cursor lsr 5) in
  while !k < n && Array.unsafe_get cur !k = 0 do incr k done;
  if !k < n then begin
    let word = Array.unsafe_get cur !k in
    let b = ctz word in
    Array.unsafe_set cur !k (word lxor (1 lsl b));
    let i = (!k lsl 5) lor b in
    w.wl_cursor <- i;
    i
  end
  else begin
    w.wl_cursor <- -1;
    w.wl_cur <- w.wl_next;
    w.wl_next <- cur;
    -1
  end

(* ---- The worm table ---- *)

let dummy_pkt =
  { Packet.src_node = 0; dst_node = 0; dst_paddr = 0; payload = Bytes.empty; seq = 0 }

(* Double the table, queueing the new ids lowest first. *)
let worms_grow t =
  let cap = Array.length t.w_flits in
  let cap' = Int.max 1 (2 * cap) in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.w_pkt <- extend t.w_pkt dummy_pkt;
  t.w_flits <- extend t.w_flits 0;
  t.w_path <- extend t.w_path [||];
  let vcs = Array.make (cap' * t.max_hops) (-1) in
  Array.blit t.w_vcs 0 vcs 0 (cap * t.max_hops);
  t.w_vcs <- vcs;
  t.w_free <- Array.make cap' 0;
  for id = cap' - 1 downto cap do
    t.w_free.(t.w_free_n) <- id;
    t.w_free_n <- t.w_free_n + 1
  done

let worm_alloc t pkt nf path =
  if t.w_free_n = 0 then worms_grow t;
  t.w_free_n <- t.w_free_n - 1;
  let w = t.w_free.(t.w_free_n) in
  t.w_pkt.(w) <- pkt;
  t.w_flits.(w) <- nf;
  t.w_path.(w) <- path;
  Array.fill t.w_vcs (w * t.max_hops) (Array.length path) (-1);
  w

let worm_free t w =
  t.w_pkt.(w) <- dummy_pkt;
  t.w_free.(t.w_free_n) <- w;
  t.w_free_n <- t.w_free_n + 1

(* ---- Sleeping wires ----

   A wire sleeps while its visits could only count stalls: while it
   waits for the wire to free, for a waiter to become ready, or for a
   credit or a VC. It counts those stall cycles when it next runs or is
   read, from the [ticks] ring: every tick from the first a waiter is
   ready at is a stall, and a head-of-line cycle too from the first the
   wire is free at with every ready waiter blocked. A sleep whose
   counting changes partway ends within [span] cycles, so the ring
   still holds the tick count at the change when the wire counts; one
   that may last longer counts alike from its first tick on, from the
   tick count it started at. *)

(* Count the stalls of sleeping [s] through cycle [upto], at most the
   clock's last tick. *)
let settle t s upto =
  if upto >= s.sleep_from then begin
    let mask = t.span - 1 in
    let hi = t.ticks.(upto land mask) in
    (* the ticks at cycles [from..upto] not yet counted; a head-of-line
       cycle is a stall too, so [hol_from >= stall_from] *)
    let from = s.stall_from in
    if from <= upto then begin
      let n =
        hi - if from <= s.sleep_from then s.sleep_base else t.ticks.((from - 1) land mask)
      in
      s.ml.l_wait_cycles <- s.ml.l_wait_cycles + n;
      t.n_stalls <- t.n_stalls + n;
      let from = s.hol_from in
      if from <= upto then begin
        let n =
          hi - if from <= s.sleep_from then s.sleep_base else t.ticks.((from - 1) land mask)
        in
        s.hol_cycles <- s.hol_cycles + n;
        t.n_hol <- t.n_hol + n
      end
    end;
    s.sleep_from <- upto + 1;
    s.sleep_base <- hi
  end

(* The last cycle a clock without sleeping links has visited [s] at:
   the tick now running counts once the arbitration pass is past [s]
   (the running tick's [ticks] entry is one ahead of [occ_cycles] until
   it ends). *)
let[@inline] seen t s =
  if s.idx <= t.arb.wl_cursor
     || t.ticks.(t.last_tick land (t.span - 1)) = t.occ_cycles
  then t.last_tick
  else t.last_tick - 1

let[@inline] ring_mark ring t i cycle =
  let j = ((cycle land (t.span - 1)) * t.words) + (i lsr 5) in
  ring.(j) <- ring.(j) lor (1 lsl (i land 31))

(* A front becomes ready at [ready], which a clock without sleeping
   links would tick at: a wire sleeping past it leaves a mark that the
   clock does too. *)
let[@inline] note_ready t ready =
  if ready < t.min_ready then t.min_ready <- ready;
  if ready > t.last_tick && ready < t.last_tick + t.span then
    t.due.(ready land (t.span - 1)) <- 1

let stop_sleep t s =
  s.asleep <- false;
  t.sleeping <- t.sleeping - 1

(* Every reader sees the stall counts as of the last tick. *)
let settle_all t =
  if t.sleeping > 0 then Array.iter (fun s -> if s.asleep then settle t s t.last_tick) t.arr

(* Something a waiting wire waits on changed during a tick (or between
   ticks): it rejoins the active set. A clock without sleeping links
   would have visited it in this tick already when it lies behind the
   cursor, so this tick is one of its stall cycles then. *)
let rouse t s =
  settle t s (seen t s);
  stop_sleep t s;
  wl_mark t.arb s.idx

(* Put awake [s] to sleep after its visit at [now] until [wake], as a
   waiting wire whose ticks are stalls from [stall] on and head-of-line
   cycles from [hol] on; a wake too near or too far for the ring keeps
   it in the active set. The counting starts after this tick, which
   the visit counted. *)
let wait t s now wake stall hol =
  if wake > now + 1 && (wake = max_int || wake < now + t.span) then begin
    s.asleep <- true;
    t.sleeping <- t.sleeping + 1;
    s.wake_cycle <- wake;
    s.stall_from <- stall;
    s.hol_from <- hol;
    s.sleep_from <- now + 1;
    s.sleep_base <- t.ticks.(now land (t.span - 1));
    if wake < max_int then ring_mark t.wake t s.idx wake
  end
  else wl_mark t.arb s.idx

(* ---- Publishing the counters ----

   The flit counters are plain fields; the registry's read hook
   publishes what accumulated since the last read through the handles,
   so every reader sees exactly the names and values a bump per event
   would have left. [net.link.busy_cycles] appears at 0 after a grant
   on a zero-occupancy wire, as a [bump_by 0] would create it. *)
let publish t =
  settle_all t;
  let pub c n = if n > 0 then Metrics.bump_by c n in
  pub t.c_injected t.n_injected;
  pub t.c_grants t.n_grants;
  pub t.c_delivered t.n_delivered;
  pub t.c_stalls t.n_stalls;
  pub t.c_hol t.n_hol;
  if t.busy_touched then Metrics.bump_by t.c_busy t.n_busy;
  (* a dead-link grant is both a retry and a dead crossing *)
  pub t.c_dead_retries t.n_dead_retries;
  pub t.c_dead_crossings t.n_dead_retries;
  t.n_injected <- 0;
  t.n_grants <- 0;
  t.n_delivered <- 0;
  t.n_stalls <- 0;
  t.n_hol <- 0;
  t.n_busy <- 0;
  t.busy_touched <- false;
  t.n_dead_retries <- 0;
  for v = 0 to t.occ_hist_hi do
    Metrics.sample_n t.s_occupancy v t.occ_hist.(v);
    t.occ_hist.(v) <- 0
  done;
  t.occ_hist_hi <- 0

let[@inline] note_occupancy t occ =
  if occ >= Array.length t.occ_hist then begin
    let h = Array.make (2 * occ) 0 in
    Array.blit t.occ_hist 0 h 0 (Array.length t.occ_hist);
    t.occ_hist <- h
  end;
  t.occ_hist.(occ) <- t.occ_hist.(occ) + 1;
  if occ > t.occ_hist_hi then t.occ_hist_hi <- occ

(* ---- The flit clock ----

   One tick per flit-cycle a flit moves or may move, the same cycles a
   clock without sleeping links would tick. Each tick first ejects (at
   most one flit per link), then arbitrates the wires (at most one flit
   crosses per link per flit-cycle), in the fixed [arr] order — fully
   deterministic. A tick visits only the links of its active sets:
   [eject] holds the links with a front flit at its destination, [arb]
   those some queue's front flit is routed over, plus the sleeping
   links the wake rings bring back this cycle. Every pop and every push
   into an empty queue re-marks the link the queue's new front waits
   for, for the first cycle that link could act at (a visit decides
   its own link's next visit while other fronts still wait there), so
   a tick visits the links a full in-order sweep would find work on,
   in the same order and against the same state, except sleeping ones,
   whose visits would only have counted a stall or noted a ready cycle
   the rings hold. An ejection link is marked for the next tick when
   its new front is ready by then, else it sleeps until the front's
   ready cycle: it is visited only at ticks it ejects at. A wire that
   has just granted, with fronts still waiting on it, sleeps until it
   frees (or until the first of them is ready, if later). A wire that
   grants nothing sleeps until it could grant: until its busy wire
   frees, or a waiter becomes ready, or (every ready waiter blocked) a
   credit or a VC comes back. A new front routed over a waiting wire
   rouses it, unless the wire is busy until it wakes anyway, when the
   front can only start its stall ticks sooner; a credit or a VC
   coming back rouses only a blocked one. The ready cycles a sleeping
   wire skips are marked on [due], so the clock still ticks at each.
   When a tick makes no progress the clock skips ahead
   to the next flit-ready, wire-free or wake time instead of spinning,
   and goes quiescent when none exists (empty network, or a worm wedged
   by a lost flit — which is why the F1 oracle and not a hang is how a
   leak surfaces). The next tick runs in place when it would be the
   engine's next event anyway ([Engine.step_to]) and is scheduled as
   the one flit-clock event only when something else is due first or
   the running pump stops short of it. *)

(* The ejection link [l] has a front ready at [ready]: it is visited
   at the next tick when that is not too early, else it sleeps until
   [ready]. Called during a tick only. *)
let[@inline] eject_at t l ready =
  let now = t.last_tick in
  if ready > now + 1 && ready < now + t.span then begin
    ring_mark t.ewake t l.idx ready;
    if not l.ej_sleep then begin
      l.ej_sleep <- true;
      t.sleeping <- t.sleeping + 1
    end
  end
  else wl_mark t.eject l.idx

(* A queue's front changed: set the queue's bit in the waiter mask of
   the link its new front waits for and mark that link, unless it is
   the wire being visited (the visit decides its own next one). A
   waiting wire busy until it wakes sleeps on, since the front can only
   start its stall ticks sooner; any other waiting wire is roused. A
   front past its last hop sits in the input FIFO of that last link,
   waiting to eject at its ready cycle. *)
let[@inline] refront t fb =
  if fb.fb_n > 0 then begin
    let k = fb.fb_head in
    let hop = fb.fb_hop.(k) in
    let p = t.w_path.(worm_of fb.fb_flit.(k)) in
    if hop < Array.length p then begin
      let s = t.arr.(p.(hop)) in
      s.waiters <- s.waiters lor (1 lsl fb.fb_pos);
      if not s.asleep then begin
        if s.idx <> t.arb.wl_cursor then wl_mark t.arb s.idx
      end
      else if s.wake_cycle <= s.wire_free then begin
        let ready = fb.fb_ready.(k) in
        s.stall_from <- Int.min s.stall_from (Int.max ready (seen t s + 1));
        note_ready t ready
      end
      else rouse t s
    end
    else eject_at t t.arr.(p.(hop - 1)) fb.fb_ready.(k)
  end

(* Push into an input FIFO, keeping the running per-VC occupancy. *)
let[@inline] push t fb flit hop ready =
  ring_push fb flit hop ready;
  t.occ_now.(fb.fb_vc) <- t.occ_now.(fb.fb_vc) + 1;
  if fb.fb_len = 1 then refront t fb

(* A credit or a VC came back to an input FIFO of [up]: a wire waiting
   with every ready waiter blocked may grant again. *)
let[@inline] unblock t up = if up.asleep && up.hol_from < max_int then rouse t up

(* Pop a FIFO's front: it leaves its wire's waiter mask; an injection
   FIFO's entry moves on to its worm's next flit and leaves after the
   tail; an input FIFO returns its credit upstream, and a popped tail
   releases the VC. *)
let pop t fb =
  let k = fb.fb_head in
  let flit = fb.fb_flit.(k) and hop = fb.fb_hop.(k) in
  let w = worm_of flit in
  let p = t.w_path.(w) in
  if hop < Array.length p then begin
    let s = t.arr.(p.(hop)) in
    s.waiters <- s.waiters land lnot (1 lsl fb.fb_pos)
  end;
  ring_pop fb;
  if fb.fb_vc >= 0 then begin
    t.occ_now.(fb.fb_vc) <- t.occ_now.(fb.fb_vc) - 1;
    if fb.fb_credits >= 0 then fb.fb_credits <- fb.fb_credits + 1;
    if idx_of flit = t.w_flits.(w) - 1 then fb.fb_owner <- -1;
    unblock t t.arr.(fb.fb_link)
  end;
  refront t fb

(* Eject at most one arrived flit from [l]'s input FIFOs (lowest VC
   first); [true] iff one left the network. A tail completes its worm,
   whose id is then free: the packet is delivered through the same
   in-order clamp as the analytic path (body flits of one pair never
   interleave on the fixed path, but the clamp keeps the delivery
   contract uniform). *)
let eject_link t l now =
  t.n_eject_visits <- t.n_eject_visits + 1;
  if l.ej_sleep then begin
    l.ej_sleep <- false;
    t.sleeping <- t.sleeping - 1
  end;
  let bufs = l.bufs in
  let ejected = ref false and waiting = ref false and soon = ref max_int in
  for v = 0 to Array.length bufs - 1 do
    let fb = bufs.(v) in
    if fb.fb_n > 0 then begin
      let k = fb.fb_head in
      let flit = fb.fb_flit.(k) and ready = fb.fb_ready.(k) in
      let w = worm_of flit in
      if fb.fb_hop.(k) = Array.length t.w_path.(w) then
        if (not !ejected) && ready <= now then begin
          pop t fb;
          if idx_of flit = t.w_flits.(w) - 1 then begin
            Mesh.deliver t.m t.w_pkt.(w) now;
            worm_free t w
          end;
          t.delivered <- t.delivered + 1;
          t.n_delivered <- t.n_delivered + 1;
          ejected := true
        end
        else begin
          waiting := true;
          if ready > now then begin
            note_ready t ready;
            if ready < !soon then soon := ready
          end
          else soon := now
        end
    end
  done;
  (* fronts that are not ready yet wake the link at the first ready
     cycle; one that only lost to a lower VC tries the next tick *)
  if !waiting then eject_at t l !soon;
  !ejected


(* Move one flit across [s] into [fb] (VC [vc]): the wire is held for
   [occ] cycles, and the flit is usable downstream [per_hop_cycles]
   later. *)
let[@inline] cross t s fb vc flit hop now occ =
  let l = s.ml in
  s.wire_free <- now + occ;
  if occ > 0 && not s.busy_listed then begin
    s.busy_listed <- true;
    t.busy.(t.busy_n) <- s.idx;
    t.busy_n <- t.busy_n + 1
  end;
  l.l_busy_cycles <- l.l_busy_cycles + occ;
  t.n_busy <- t.n_busy + occ;
  t.busy_touched <- true;
  (match l.l_fault with
  | Link_dead -> t.n_dead_retries <- t.n_dead_retries + 1
  | Link_ok | Link_slow _ -> ());
  if idx_of flit = 0 then begin
    t.w_vcs.((worm_of flit * t.max_hops) + hop) <- vc;
    fb.fb_owner <- worm_of flit
  end;
  if fb.fb_credits > 0 then fb.fb_credits <- fb.fb_credits - 1;
  push t fb flit (hop + 1) (now + t.m.config.per_hop_cycles);
  if fb.fb_len > fb.fb_max_occ then fb.fb_max_occ <- fb.fb_len;
  fb.fb_grants <- fb.fb_grants + 1;
  t.n_grants <- t.n_grants + 1;
  note_occupancy t fb.fb_len

(* Arbitrate one wire in a single pass over its waiters — the units
   whose front flit is routed over it — scanning circularly from [rr].
   A waiter whose front is ready is a contender; the first contender
   that may also take a VC — a head asks the per-wire VC allocator
   (round-robin over the free, credited VCs, the same
   [Mesh.arbitrate_by] discipline as the analytic crossing), a body or
   tail needs a credit on the VC its head took — wins the wire if it
   is free. A contender without a grant is a stall cycle, and a
   head-of-line cycle when the wire itself is idle. [true] iff the wire
   granted a flit. *)
let arbitrate t s now =
  let l = s.ml in
  let units = s.units in
  let vcn = Array.length s.bufs in
  let wire_free = now >= s.wire_free in
  let routed = ref 0 and waiters = ref 0 and winner = ref (-1) in
  let later = ref max_int in  (* the earliest ready cycle of a waiter not yet ready *)
  let head_vc = ref (-2) in  (* -2: the VC allocator not asked yet *)
  (* the waiters at or after [rr], then those before it *)
  let mask = s.waiters and rr = s.rr in
  let bits = ref (mask land (-1 lsl rr)) and wrapped = ref false in
  while !bits <> 0 || not !wrapped do
    if !bits = 0 then begin
      wrapped := true;
      bits := mask land ((1 lsl rr) - 1)
    end
    else begin
      let ui = ctz !bits in
      bits := !bits land (!bits - 1);
      let fb = units.(ui) in
      let k = fb.fb_head in
      let ready = fb.fb_ready.(k) in
      incr routed;
      if ready > now then begin
        note_ready t ready;
        if ready < !later then later := ready
      end
      else begin
        incr waiters;
        if wire_free && !winner < 0 then begin
          let flit = fb.fb_flit.(k) in
          if idx_of flit = 0 then begin
            if !head_vc = -2 then
              (* a head may claim a free, credited VC *)
              head_vc := Mesh.arbitrate_by ~rr:s.vc_rr ~n:vcn s.vc_free;
            if !head_vc >= 0 then winner := ui
          end
          else
            let w = worm_of flit in
            let vc = t.w_vcs.((w * t.max_hops) + fb.fb_hop.(k)) in
            if vc >= 0 && s.bufs.(vc).fb_owner = w && s.bufs.(vc).fb_credits <> 0 then
              winner := ui
        end
      end
    end
  done;
  if !winner >= 0 then begin
    let ui = !winner in
    s.rr <- (if ui + 1 = Array.length units then 0 else ui + 1);
    let u = units.(ui) in
    let k = u.fb_head in
    let flit = u.fb_flit.(k) and hop = u.fb_hop.(k) in
    let w = worm_of flit in
    let vc = if idx_of flit = 0 then !head_vc else t.w_vcs.((w * t.max_hops) + hop) in
    let fb = s.bufs.(vc) in
    if idx_of flit = 0 then begin
      s.vc_rr <- (if vc + 1 = vcn then 0 else vc + 1);
      (* the head claims the whole packet's crossing of this wire for
         link-level stats *)
      l.l_xmits <- l.l_xmits + 1
    end;
    pop t u;
    cross t s fb vc flit hop now s.occ;
    if s.waiters <> 0 then begin
      (* fronts still wait here, the winner's successor among them if
         routed here: nothing is granted before the wire frees, and
         every tick before then from the first a front is ready at is a
         stall *)
      let next =
        if s.waiters land (1 lsl u.fb_pos) <> 0 then u.fb_ready.(u.fb_head) else max_int
      in
      if next > now then note_ready t next;
      let stall = if !waiters > 1 then now + 1 else Int.max (now + 1) (Int.min !later next) in
      wait t s now (Int.max s.wire_free stall) stall max_int
    end;
    true
  end
  else begin
    if !routed > 0 then
      (* nothing changes for this wire before the wire frees (when it
         is busy), a waiter becomes ready or one of its FIFOs pops (a
         credit or a VC returns): it waits for the first that lets it
         grant *)
      if !waiters = 0 then wait t s now (Int.max s.wire_free !later) !later max_int
      else if wire_free then wait t s now !later (now + 1) (now + 1)
      else wait t s now s.wire_free (now + 1) max_int;
    if !waiters > 0 then begin
      (* a stall cycle: a ready waiter and no grant *)
      l.l_wait_cycles <- l.l_wait_cycles + 1;
      t.n_stalls <- t.n_stalls + 1;
      if wire_free then begin
        (* the wire is idle yet no flit may cross: head-of-line /
           credit blocking, the quantity E18 measures *)
        s.hol_cycles <- s.hol_cycles + 1;
        t.n_hol <- t.n_hol + 1
      end
    end;
    false
  end

(* A wire's visit: an awake wire arbitrates; a sleeping one wakes to
   arbitrate at its wake cycle, and has nothing to do at a wake left
   on the ring by an earlier sleep. *)
let visit t s now =
  t.n_visits <- t.n_visits + 1;
  if not s.asleep then arbitrate t s now
  else if now = s.wake_cycle then begin
    settle t s (now - 1);
    stop_sleep t s;
    arbitrate t s now
  end
  else false

(* Earliest future cycle at which anything could change, or [max_int]
   when the network is empty or frozen. Called after a tick without
   progress, which visited every awake queue's front (each waits on a
   link of an active set) and so saw the earliest future ready cycle;
   the wires still busy past [now] are all on [busy]; a sleeping link's
   visits are in the wake rings, and the ready cycles it sleeps past on
   [due]. *)
let next_time t now =
  if wl_is_empty t.arb && wl_is_empty t.eject && t.sleeping = 0 then max_int
  else begin
    let best = ref t.min_ready and kept = ref 0 in
    for j = 0 to t.busy_n - 1 do
      let li = t.busy.(j) in
      let s = t.arr.(li) in
      if s.wire_free > now then begin
        t.busy.(!kept) <- li;
        incr kept;
        if s.wire_free < !best then best := s.wire_free
      end
      else s.busy_listed <- false
    done;
    t.busy_n <- !kept;
    if t.sleeping > 0 then begin
      let c = ref (now + 1) in
      let stop = Int.min !best (now + t.span) in
      while !c < stop do
        let slot = !c land (t.span - 1) in
        let base = slot * t.words and k = ref 0 in
        while !k < t.words && t.wake.(base + !k) lor t.ewake.(base + !k) = 0 do incr k done;
        if !k < t.words || t.due.(slot) <> 0 then begin best := !c; c := stop end
        else incr c
      done
    end;
    !best
  end

(* The links a wake ring holds for cycle slot [base] join the next
   pass of [wl], before it starts. *)
let drain t ring wl base =
  let cur = wl.wl_cur in
  for k = 0 to t.words - 1 do
    let bits = ring.(base + k) in
    if bits <> 0 then begin
      ring.(base + k) <- 0;
      cur.(k) <- cur.(k) lor bits
    end
  done

let rec tick t =
  let e = t.m.engine in
  let now = Engine.now e in
  if now > t.last_tick then begin
    (* the ticks ring: [occ_cycles] ticks before this one *)
    let mask = t.span - 1 in
    for c = Int.max (t.last_tick + 1) (now - mask) to now - 1 do
      t.ticks.(c land mask) <- t.occ_cycles
    done;
    t.ticks.(now land mask) <- t.occ_cycles + 1;
    t.last_tick <- now;
    t.min_ready <- max_int;
    t.due.(now land mask) <- 0;
    let base = (now land mask) * t.words in
    drain t t.wake t.arb base;
    drain t t.ewake t.eject base;
    let progress = ref false in
    let i = ref (wl_take t.eject) in
    while !i >= 0 do
      if eject_link t t.arr.(!i) now then progress := true;
      i := wl_take t.eject
    done;
    i := wl_take t.arb;
    while !i >= 0 do
      if visit t t.arr.(!i) now then progress := true;
      i := wl_take t.arb
    done;
    (* the occupancy profile samples every active flit-cycle *)
    t.occ_cycles <- t.occ_cycles + 1;
    for v = 0 to Array.length t.occ_now - 1 do
      let occ = t.occ_now.(v) in
      t.occ_sum.(v) <- t.occ_sum.(v) +. float_of_int occ;
      if occ > t.occ_max.(v) then t.occ_max.(v) <- occ
    done;
    let tn = if !progress then now + 1 else next_time t now in
    if tn < max_int then
      if Engine.step_to e tn then tick t else Engine.schedule_at e ~time:tn t.tick_ev
  end

(* Every directed mesh link is materialised up front, in (src, dst)
   order, so the per-cycle arbitration loop iterates them
   deterministically (a lazy creation order would depend on traffic). *)
let create (m : Mesh.t) =
  let cfg = m.config in
  let cap = match cfg.rx_credits with None -> -1 | Some c -> c in
  let vcn = cfg.vc_count in
  let pairs =
    List.init m.node_count (fun a ->
        List.filter_map
          (fun b ->
            if b >= 0 && b < m.node_count && Mesh.hops m ~src:a ~dst:b = 1 then Some (a, b)
            else None)
          [ a - m.width; a - 1; a + 1; a + m.width ])
    |> List.concat |> Array.of_list
  in
  (* a link's input FIFOs sit at its dst; their unit positions there
     follow the injection FIFO (position 0) in (src, dst, vc) order *)
  let incoming = Array.make m.node_count 0 in
  let arr =
    Array.mapi
      (fun idx (a, b) ->
        let base = 1 + (incoming.(b) * vcn) in
        incoming.(b) <- incoming.(b) + 1;
        let bufs =
          Array.init vcn (fun vc -> ring_create ~vc ~pos:(base + vc) ~link:idx ~capacity:cap)
        in
        let ml = Mesh.link_of m a b in
        { ml; idx; bufs; units = [||]; waiters = 0; rr = 0; vc_rr = 0;
          vc_free = (fun v -> bufs.(v).fb_owner = -1 && bufs.(v).fb_credits <> 0);
          occ = wire_occ cfg ml; wire_free = 0; busy_listed = false; hol_cycles = 0;
          asleep = false; wake_cycle = -1; sleep_from = 0; sleep_base = 0;
          stall_from = max_int; hol_from = max_int; ej_sleep = false })
      pairs
  in
  let inject =
    Array.init m.node_count (fun _ -> ring_create ~vc:(-1) ~pos:0 ~link:(-1) ~capacity:(-1))
  in
  (* the input units competing for each wire: the source node's
     injection FIFO first, then each incoming link's input-buffer VCs
     in (src, dst, vc) order *)
  let node_units =
    Array.init m.node_count (fun n ->
        Array.concat
          ([| inject.(n) |]
          :: List.filter_map
               (fun l -> if l.ml.l_dst = n then Some l.bufs else None)
               (Array.to_list arr)))
  in
  Array.iter (fun l -> l.units <- node_units.(l.ml.l_src)) arr;
  let index = Hashtbl.create 64 in
  Array.iter (fun l -> Hashtbl.add index (l.ml.l_src, l.ml.l_dst) l.idx) arr;
  let nl = Array.length arr and em = Engine.metrics m.engine in
  (* a pushed flit is ready [per_hop_cycles] later, so the rings cover
     that (capped at 4096 cycles) *)
  let span = ref 4 in
  while !span < Int.min 4096 (cfg.per_hop_cycles + 2) do
    span := 2 * !span
  done;
  let words = (nl + 31) / 32 in
  let c = Metrics.counter em in
  let t =
    {
      m; arr; index; paths = Hashtbl.create 64; inject;
      injected = 0; delivered = 0; last_tick = -1; tick_ev = ignore;
      arb = wl_create nl; eject = wl_create nl;
      busy = Array.make nl 0; busy_n = 0; min_ready = max_int;
      occ_now = Array.make vcn 0;
      occ_sum = Array.make vcn 0.0;
      occ_max = Array.make vcn 0;
      occ_cycles = 0;
      span = !span; words; wake = Array.make (!span * words) 0;
      ewake = Array.make (!span * words) 0; due = Array.make !span 0;
      ticks = Array.make !span 0; sleeping = 0;
      max_hops = m.width - 1 + (m.node_count / m.width) - 1;
      w_pkt = [||]; w_flits = [||]; w_path = [||]; w_vcs = [||]; w_free = [||];
      w_free_n = 0;
      n_injected = 0; n_grants = 0; n_delivered = 0; n_stalls = 0; n_hol = 0;
      n_busy = 0; busy_touched = false; n_dead_retries = 0;
      occ_hist = Array.make 16 0; occ_hist_hi = 0;
      n_visits = 0; n_eject_visits = 0;
      c_injected = c "net.flit.injected";
      c_grants = c "net.flit.grants";
      c_delivered = c "net.flit.delivered";
      c_stalls = c "net.flit.stall_cycles";
      c_hol = c "net.flit.hol_stall_cycles";
      c_busy = c "net.link.busy_cycles";
      c_dead_retries = c "net.flit.dead_retries";
      c_dead_crossings = c "net.link.dead_crossings";
      s_occupancy = Metrics.sampler em "net.flit.occupancy";
    }
  in
  t.tick_ev <- (fun _ -> tick t);
  Metrics.on_read em (fun () -> publish t);
  t

(* The path from [src] to [dst] as indices into [arr], built once per
   pair. *)
let path_of t ~src ~dst =
  let key = (src * t.m.node_count) + dst in
  match Hashtbl.find t.paths key with
  | p -> p
  | exception Not_found ->
      let p =
        Array.of_list (List.map (Hashtbl.find t.index) (Mesh.path t.m ~src ~dst))
      in
      Hashtbl.add t.paths key p;
      p

(* Decompose a packet for another node into a worm and enqueue it, as
   one entry of all its flits, on the source node's injection FIFO
   (worms of one source serialize there, like the NI's outgoing FIFO). *)
let send t pkt =
  let m = t.m in
  let src = pkt.Packet.src_node and dst = pkt.Packet.dst_node in
  let words = (Packet.size_bytes pkt + 3) / 4 in
  let nf =
    Int.max 1 ((words + m.config.flit_words - 1) / m.config.flit_words)
  in
  let path = path_of t ~src ~dst in
  let w = worm_alloc t pkt nf path in
  let ready = Engine.now m.engine + m.config.base_cycles in
  let q = t.inject.(src) in
  ring_add q (pack w 0) nf 0 ready 0;
  if q.fb_n = 1 then refront t q;
  t.injected <- t.injected + nf;
  t.n_injected <- t.n_injected + nf;
  Engine.schedule_at m.engine ~time:ready t.tick_ev

(* A fault was set on the link [from_node] -> [to_node]: its next grant
   holds the wire for the faulted occupancy. A sleeping wire sleeps on,
   since what it waits for does not depend on the occupancy. *)
let fault_changed t ~from_node ~to_node =
  match Hashtbl.find_opt t.index (from_node, to_node) with
  | Some i ->
      let s = t.arr.(i) in
      s.occ <- wire_occ t.m.config s.ml
  | None -> ()

(* Every (link, VC) input FIFO, in (from, to, vc) order. *)
let flit_stats t =
  settle_all t;
  Array.to_list t.arr
  |> List.concat_map (fun s ->
         List.mapi
           (fun i fb ->
             { fl_from = s.ml.l_src; fl_to = s.ml.l_dst; fl_vc = i;
               fl_capacity = fb.fb_capacity; fl_occ = fb.fb_len;
               fl_credits = fb.fb_credits; fl_max_occ = fb.fb_max_occ;
               fl_grants = fb.fb_grants; fl_stall_cycles = s.ml.l_wait_cycles;
               fl_hol_cycles = s.hol_cycles })
           (Array.to_list s.bufs))

let flit_counts t =
  let buffered = ref 0 in
  Array.iter (fun q -> buffered := !buffered + q.fb_len) t.inject;
  Array.iter
    (fun l -> Array.iter (fun fb -> buffered := !buffered + fb.fb_len) l.bufs)
    t.arr;
  (t.injected, t.delivered, !buffered)

let flit_vc_occupancy t =
  Array.mapi
    (fun v sum ->
      let mean = if t.occ_cycles = 0 then 0.0 else sum /. float_of_int t.occ_cycles in
      (mean, t.occ_max.(v)))
    t.occ_sum

(* F1: flit conservation. Every flit ever injected is delivered or
   still sitting in some FIFO, and every finite input FIFO satisfies
   credits + occupancy = capacity with occupancy within capacity: a
   lost flit makes the sum come up short, two flits moved against one
   credit break the per-FIFO identity. Holds at every flit-cycle. *)
let check_flits t =
  let injected, delivered, buffered = flit_counts t in
  let sums = Array.make (Array.length t.occ_now) 0 and fifo = ref None in
  Array.iter
    (fun l ->
      Array.iter
        (fun fb ->
          sums.(fb.fb_vc) <- sums.(fb.fb_vc) + fb.fb_len;
          if !fifo = None && fb.fb_capacity >= 0
             && (fb.fb_credits + fb.fb_len <> fb.fb_capacity
                || fb.fb_len > fb.fb_capacity)
          then
            fifo :=
              Some
                (Printf.sprintf "link %d-%d vc %d: credits %d + occupancy %d <> capacity %d"
                   l.ml.l_src l.ml.l_dst fb.fb_vc fb.fb_credits fb.fb_len fb.fb_capacity))
        l.bufs)
    t.arr;
  if injected <> delivered + buffered then
    Some
      (Printf.sprintf "flit conservation: injected %d <> delivered %d + in-network %d"
         injected delivered buffered)
  else if !fifo <> None then !fifo
  else
    (* the running per-VC total the occupancy profile samples *)
    List.find_map
      (fun v ->
        if t.occ_now.(v) <> sums.(v) then
          Some
            (Printf.sprintf "vc %d: running occupancy %d <> buffered flits %d" v
               t.occ_now.(v) sums.(v))
        else None)
      (List.init (Array.length sums) Fun.id)

(* ---- Introspection for tests ---- *)

let census t = (t.n_visits, t.n_eject_visits)

let worms t =
  let slots = Array.length t.w_flits in
  (slots - t.w_free_n, slots)

let worm t w =
  if t.w_pkt.(w) == dummy_pkt then None else Some (t.w_flits.(w), t.w_pkt.(w).Packet.src_node)

type fifo = {
  fi_node : int;
  fi_slots : int;
  fi_len : int;
  fi_entries : (int * int * int) list;
}

let fifos t =
  let view node fb =
    let size = Array.length fb.fb_flit in
    { fi_node = node; fi_slots = size; fi_len = fb.fb_len;
      fi_entries =
        List.init fb.fb_n (fun e ->
            let k = (fb.fb_head + e) land (size - 1) in
            (worm_of fb.fb_flit.(k), idx_of fb.fb_flit.(k), count_of fb.fb_run.(k))) }
  in
  Array.to_list (Array.mapi view t.inject)
  @ List.concat_map (fun l -> List.map (view (-1)) (Array.to_list l.bufs)) (Array.to_list t.arr)
