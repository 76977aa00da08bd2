(* The flit crossing: a cycle-by-cycle wormhole network. A packet
   decomposes into head/body/tail flits that cross the mesh one link
   per flit-cycle through per-(link, VC) input FIFOs with per-flit-slot
   credits. This module owns every decision of that model: worms, input
   FIFOs, the active-set worklists, the flit clock, the F1 oracle and
   the flit stats and occupancy profile.

   The per-flit-cycle loop allocates nothing. A flit is one packed
   [int]; every FIFO is a ring of parallel [int] arrays; worms live in
   a struct-of-arrays table; the worklists are bitsets; the flit
   counters are plain fields published to [Metrics] on read. *)

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

(* Index of the lowest set bit of a non-zero word of at most 32 bits. *)
let ctz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then begin n := 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

(* One FIFO: a node's injection FIFO ([fb_vc = -1], unlimited, no
   credits) or one (link, VC) input FIFO on the deposit side of a
   directed link. The queue is a ring of three parallel arrays — the
   packed flit, the next hop it will traverse (|path| once at its
   destination) and the cycle it is usable where it sits — that
   doubles when full (an unlimited FIFO grows). An input FIFO holds one
   entry per flit, since credits count flit slots. An injection FIFO
   holds one entry per queued worm: its front flit, whose index
   advances in place as flits leave, and every flit of a worm is ready
   at the same cycle and bound for the same first hop, so the front
   reads exactly as a ring of single flits would. [fb_capacity] flit slots
   (-1 = unlimited); [fb_credits] is the credit counter the sender
   side spends one of per flit pushed and the receiver returns one of
   per flit popped, so [credits + occupancy = capacity] at every
   flit-cycle — half of the F1 conservation oracle. [fb_owner] is the
   id of the worm whose head claimed this VC (freed when its tail pops
   out). [fb_pos] is the FIFO's position among the input units of the
   node it feeds, its bit in that node's links' waiter masks. *)
type fbuf = {
  fb_vc : int;
  fb_pos : int;
  fb_capacity : int;
  mutable fb_credits : int;
  mutable fb_owner : int;
  mutable fb_max_occ : int;
  mutable fb_grants : int;
  mutable fb_flit : int array;
  mutable fb_hop : int array;
  mutable fb_ready : int array;
  mutable fb_head : int;            (* ring slot of the front *)
  mutable fb_len : int;             (* occupancy *)
}

(* The wire state of one mesh link ([ml]). Its input units — the
   competitors for the wire — are the source node's injection FIFO
   followed by each incoming link's input FIFOs in (src, dst, vc)
   order; [waiters] has bit [fb_pos] set for each unit whose front
   flit is routed over this wire. *)
type link = {
  ml : Mesh.link;
  idx : int;                        (* position in [arr] *)
  bufs : fbuf array;                (* input FIFOs at the link's dst, per VC *)
  mutable units : fbuf array;       (* competitors for this wire *)
  mutable waiters : int;
  mutable rr : int;                 (* rr pointer over [units] *)
  mutable vc_rr : int;              (* rr pointer for head-flit VC grants *)
  vc_free : int -> bool;            (* VC unowned and credited: a head may take it *)
  mutable wire_free : int;
  mutable busy_listed : bool;       (* in [busy] *)
  mutable hol_cycles : int;         (* stall cycles while the wire was free *)
}

(* A set of link indices drained in ascending order, one pass per
   flit-cycle — the active set of the flit clock. Marking an index
   ahead of the pass cursor queues it later in the same pass; marking
   one at or behind the cursor defers it to the next pass, which is
   exactly when a full in-order sweep of every link would next reach
   it. Two bitsets of 32-bit words hold the members. *)
type worklist = {
  mutable wl_cur : int array;       (* members due this pass, all > cursor *)
  mutable wl_next : int array;      (* members due next pass *)
  mutable wl_n : int;               (* members in both *)
  mutable wl_cursor : int;          (* index being visited; -1 between passes *)
}

type t = {
  m : Mesh.t;
  arr : link array;                 (* every directed link, (src, dst) order *)
  index : (int * int, int) Hashtbl.t;  (* (src, dst) -> position in [arr] *)
  paths : (int, int array) Hashtbl.t;  (* src * nodes + dst -> link indices *)
  inject : fbuf array;              (* per-source injection FIFOs *)
  mutable injected : int;
  mutable queued : int;             (* flits still in injection FIFOs *)
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

let ring_create ~vc ~pos ~capacity =
  let size = ref 4 in
  while !size < capacity do size := 2 * !size done;
  { fb_vc = vc; fb_pos = pos; fb_capacity = capacity; fb_credits = capacity;
    fb_owner = -1; fb_max_occ = 0; fb_grants = 0;
    fb_flit = Array.make !size 0; fb_hop = Array.make !size 0;
    fb_ready = Array.make !size 0; fb_head = 0; fb_len = 0 }

let ring_grow fb =
  let size = Array.length fb.fb_flit in
  let move a =
    let b = Array.make (2 * size) 0 in
    for k = 0 to fb.fb_len - 1 do
      b.(k) <- a.((fb.fb_head + k) land (size - 1))
    done;
    b
  in
  fb.fb_flit <- move fb.fb_flit;
  fb.fb_hop <- move fb.fb_hop;
  fb.fb_ready <- move fb.fb_ready;
  fb.fb_head <- 0

let ring_add fb flit hop ready =
  if fb.fb_len = Array.length fb.fb_flit then ring_grow fb;
  let k = (fb.fb_head + fb.fb_len) land (Array.length fb.fb_flit - 1) in
  fb.fb_flit.(k) <- flit;
  fb.fb_hop.(k) <- hop;
  fb.fb_ready.(k) <- ready;
  fb.fb_len <- fb.fb_len + 1

let ring_drop fb =
  fb.fb_head <- (fb.fb_head + 1) land (Array.length fb.fb_flit - 1);
  fb.fb_len <- fb.fb_len - 1

(* ---- Worklists ---- *)

let wl_create n =
  let words = (n + 31) / 32 in
  { wl_cur = Array.make words 0; wl_next = Array.make words 0; wl_n = 0;
    wl_cursor = -1 }

let wl_is_empty w = w.wl_n = 0

let wl_mark w i =
  let k = i lsr 5 and b = 1 lsl (i land 31) in
  if (w.wl_cur.(k) lor w.wl_next.(k)) land b = 0 then begin
    w.wl_n <- w.wl_n + 1;
    if i > w.wl_cursor then w.wl_cur.(k) <- w.wl_cur.(k) lor b
    else w.wl_next.(k) <- w.wl_next.(k) lor b
  end

(* The next member due in this pass, or -1 once the pass is over (the
   deferred members then become due for the next one). *)
let wl_take w =
  let cur = w.wl_cur in
  let k = ref (if w.wl_cursor < 0 then 0 else w.wl_cursor lsr 5) in
  while !k < Array.length cur && cur.(!k) = 0 do incr k done;
  if !k < Array.length cur then begin
    let word = cur.(!k) in
    let b = ctz word in
    cur.(!k) <- word lxor (1 lsl b);
    w.wl_n <- w.wl_n - 1;
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

(* ---- Publishing the counters ----

   The flit counters are plain fields; the registry's read hook
   publishes what accumulated since the last read through the handles,
   so every reader sees exactly the names and values a bump per event
   would have left. [net.link.busy_cycles] appears at 0 after a grant
   on a zero-occupancy wire, as a [bump_by 0] would create it. *)
let publish t =
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

let note_occupancy t occ =
  if occ >= Array.length t.occ_hist then begin
    let h = Array.make (2 * occ) 0 in
    Array.blit t.occ_hist 0 h 0 (Array.length t.occ_hist);
    t.occ_hist <- h
  end;
  t.occ_hist.(occ) <- t.occ_hist.(occ) + 1;
  if occ > t.occ_hist_hi then t.occ_hist_hi <- occ

(* ---- The flit clock ----

   One tick per active flit-cycle. Each tick first ejects (at
   most one flit per link), then arbitrates the wires (at most one
   flit crosses per link per flit-cycle), in the fixed [arr] order —
   fully deterministic. A tick visits only the links of its active
   sets: [eject] holds the links with a front flit at its destination,
   [arb] those some queue's front flit is routed over. Every pop and
   every push into an empty queue re-marks the link the queue's new
   front waits for (a visit re-marks its own link while other fronts
   still wait there), so a tick visits exactly the links a full
   in-order sweep would find work on, in the same order and against
   the same state. When a tick makes no progress the clock skips ahead
   to the next flit-ready or wire-free time instead of spinning, and
   goes quiescent when neither exists (empty network, or a worm wedged
   by a lost flit — which is why the F1 oracle and not a hang is how a
   leak surfaces). The next tick runs in place when it would
   be the engine's next event anyway ([Engine.step_to]) and is
   scheduled as the one flit-clock event only when something else is
   due first or the running pump stops short of it. *)

(* A queue's front changed: mark the link its new front waits for and
   set the queue's bit in that link's waiter mask. A front past its
   last hop sits in the input FIFO of that last link, waiting to
   eject. *)
let refront t fb =
  if fb.fb_len > 0 then begin
    let k = fb.fb_head in
    let hop = fb.fb_hop.(k) in
    let p = t.w_path.(worm_of fb.fb_flit.(k)) in
    if hop < Array.length p then begin
      let s = t.arr.(p.(hop)) in
      s.waiters <- s.waiters lor (1 lsl fb.fb_pos);
      wl_mark t.arb s.idx
    end
    else wl_mark t.eject p.(hop - 1)
  end

(* Push into an input FIFO, keeping the running per-VC occupancy. *)
let push t fb flit hop ready =
  ring_add fb flit hop ready;
  t.occ_now.(fb.fb_vc) <- t.occ_now.(fb.fb_vc) + 1;
  if fb.fb_len = 1 then refront t fb

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
  let tail = idx_of flit = t.w_flits.(w) - 1 in
  if fb.fb_vc < 0 then begin
    t.queued <- t.queued - 1;
    if tail then ring_drop fb else fb.fb_flit.(k) <- flit + 1
  end
  else begin
    ring_drop fb;
    t.occ_now.(fb.fb_vc) <- t.occ_now.(fb.fb_vc) - 1;
    if fb.fb_credits >= 0 then fb.fb_credits <- fb.fb_credits + 1;
    if tail then fb.fb_owner <- -1
  end;
  refront t fb

let note_ready t ready = if ready < t.min_ready then t.min_ready <- ready

(* Eject at most one arrived flit from [l]'s input FIFOs (lowest VC
   first); [true] iff one left the network. A tail completes its worm,
   whose id is then free: the packet is delivered through the same
   in-order clamp as the analytic path (body flits of one pair never
   interleave on the fixed path, but the clamp keeps the delivery
   contract uniform). *)
let eject_link t l now =
  let bufs = l.bufs in
  let ejected = ref false and waiting = ref false in
  for v = 0 to Array.length bufs - 1 do
    let fb = bufs.(v) in
    if fb.fb_len > 0 then begin
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
          if ready > now then note_ready t ready
        end
    end
  done;
  if !waiting then wl_mark t.eject l.idx;
  !ejected

(* Move one granted flit across the wire into [fb] (VC [vc]). *)
let advance t fb vc flit hop now =
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
   head-of-line cycle when the wire itself is idle. [true] iff the
   wire granted a flit. *)
let arbitrate_link t s now =
  let l = s.ml in
  let m = t.m in
  let units = s.units in
  let vcn = Array.length s.bufs in
  let wire_free = now >= s.wire_free in
  let routed = ref 0 and waiter = ref false and winner = ref (-1) in
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
      if ready > now then note_ready t ready
      else begin
        waiter := true;
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
  (* fronts still waiting here keep the wire in the active set; the
     winner's successor re-marks it through [pop] if routed here *)
  if !routed > (if !winner >= 0 then 1 else 0) then wl_mark t.arb s.idx;
  if !winner >= 0 then begin
    let ui = !winner in
    s.rr <- (ui + 1) mod Array.length units;
    let u = units.(ui) in
    let k = u.fb_head in
    let flit = u.fb_flit.(k) and hop = u.fb_hop.(k) in
    let w = worm_of flit in
    let vc = if idx_of flit = 0 then !head_vc else t.w_vcs.((w * t.max_hops) + hop) in
    let fb = s.bufs.(vc) in
    if idx_of flit = 0 then begin
      s.vc_rr <- (vc + 1) mod vcn;
      (* the head claims the whole packet's crossing of this wire for
         link-level stats *)
      l.l_xmits <- l.l_xmits + 1
    end;
    pop t u;
    let occ =
      m.config.per_word_cycles * m.config.flit_words * Mesh.occupancy_factor l.l_fault
    in
    s.wire_free <- now + occ;
    if occ > 0 && not s.busy_listed then begin
      s.busy_listed <- true;
      t.busy.(t.busy_n) <- s.idx;
      t.busy_n <- t.busy_n + 1
    end;
    l.l_busy_cycles <- l.l_busy_cycles + occ;
    t.n_busy <- t.n_busy + occ;
    t.busy_touched <- true;
    let dead = match l.l_fault with Link_dead -> true | Link_ok | Link_slow _ -> false in
    if dead then t.n_dead_retries <- t.n_dead_retries + 1;
    advance t fb vc flit hop now;
    true
  end
  else begin
    if !waiter then begin
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

(* Earliest future cycle at which anything could change, or [max_int]
   when the network is empty or frozen. Called after a tick without
   progress, which visited every queue's front (each waits on a link of
   an active set) and so saw the earliest future ready cycle; the wires
   still busy past [now] are all on [busy]. *)
let next_time t now =
  if wl_is_empty t.arb && wl_is_empty t.eject then max_int
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
    !best
  end

let rec tick t =
  let e = t.m.engine in
  let now = Engine.now e in
  if now > t.last_tick then begin
    t.last_tick <- now;
    t.min_ready <- max_int;
    let progress = ref false in
    let i = ref (wl_take t.eject) in
    while !i >= 0 do
      if eject_link t t.arr.(!i) now then progress := true;
      i := wl_take t.eject
    done;
    i := wl_take t.arb;
    while !i >= 0 do
      if arbitrate_link t t.arr.(!i) now then progress := true;
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
        let bufs = Array.init vcn (fun vc -> ring_create ~vc ~pos:(base + vc) ~capacity:cap) in
        { ml = Mesh.link_of m a b; idx; bufs; units = [||]; waiters = 0; rr = 0; vc_rr = 0;
          vc_free = (fun v -> bufs.(v).fb_owner = -1 && bufs.(v).fb_credits <> 0);
          wire_free = 0; busy_listed = false; hol_cycles = 0 })
      pairs
  in
  let inject = Array.init m.node_count (fun _ -> ring_create ~vc:(-1) ~pos:0 ~capacity:(-1)) in
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
  let c = Metrics.counter em in
  let t =
    {
      m; arr; index; paths = Hashtbl.create 64; inject;
      injected = 0; queued = 0; delivered = 0; last_tick = -1; tick_ev = ignore;
      arb = wl_create nl; eject = wl_create nl;
      busy = Array.make nl 0; busy_n = 0; min_ready = max_int;
      occ_now = Array.make vcn 0;
      occ_sum = Array.make vcn 0.0;
      occ_max = Array.make vcn 0;
      occ_cycles = 0;
      max_hops = m.width - 1 + (m.node_count / m.width) - 1;
      w_pkt = [||]; w_flits = [||]; w_path = [||]; w_vcs = [||]; w_free = [||];
      w_free_n = 0;
      n_injected = 0; n_grants = 0; n_delivered = 0; n_stalls = 0; n_hol = 0;
      n_busy = 0; busy_touched = false; n_dead_retries = 0;
      occ_hist = Array.make 16 0; occ_hist_hi = 0;
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
   one entry at its head flit, on the source node's injection FIFO
   (worms of one source serialize there, like the NI's outgoing
   FIFO). *)
let send t pkt =
  let m = t.m in
  let src = pkt.Packet.src_node and dst = pkt.Packet.dst_node in
  let words = (Packet.size_bytes pkt + 3) / 4 in
  let nf =
    Int.max 1 ((words + m.config.flit_words - 1) / m.config.flit_words)
  in
  let w = worm_alloc t pkt nf (path_of t ~src ~dst) in
  let ready = Engine.now m.engine + m.config.base_cycles in
  let q = t.inject.(src) in
  ring_add q (pack w 0) 0 ready;
  if q.fb_len = 1 then refront t q;
  t.injected <- t.injected + nf;
  t.queued <- t.queued + nf;
  t.n_injected <- t.n_injected + nf;
  Engine.schedule_at m.engine ~time:ready t.tick_ev

(* Every (link, VC) input FIFO, in (from, to, vc) order. *)
let flit_stats t =
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
  let buffered = ref t.queued in
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
