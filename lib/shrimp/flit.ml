(* The flit crossing: a cycle-by-cycle wormhole network. A packet
   decomposes into head/body/tail flits that cross the mesh one link
   per flit-cycle through per-(link, VC) input FIFOs with per-flit-slot
   credits. This module owns every decision of that model: worms, input
   FIFOs, the active-set worklists, the flit clock, the F1 oracle and
   the flit stats and occupancy profile. *)

module Engine = Udma_sim.Engine
module Metrics = Udma_obs.Metrics
open Mesh.Types

(* A worm is the in-network image of one packet: its flits all follow
   the path the head reserves (as indices into [arr]), and [w_vcs]
   records, per hop, the virtual channel the head was granted there
   (-1 until the head crosses that hop), which the body and tail must
   reuse — the wormhole discipline. *)
type worm = {
  w_id : int;
  w_pkt : Packet.t;
  w_flits : int;
  w_path : int array;
  w_vcs : int array;
}

type flit = {
  f_worm : worm;
  f_idx : int;              (* 0 = head, w_flits - 1 = tail *)
  mutable f_hop : int;      (* next hop to traverse; |w_path| once at dst *)
  mutable f_ready : int;    (* cycle the flit is usable where it sits *)
}

(* One (link, VC) input FIFO on the deposit side of a directed link.
   [fb_capacity] flit slots (-1 = unlimited); [fb_credits] is the
   credit counter the sender side spends one of per flit pushed and
   the receiver returns one of per flit popped, so
   [credits + occupancy = capacity] at every flit-cycle — half of the
   F1 conservation oracle. [fb_owner] is the id of the worm whose head
   claimed this VC (freed when its tail pops out). *)
type fbuf = {
  fb_vc : int;
  fb_capacity : int;
  mutable fb_credits : int;
  mutable fb_occ : int;
  mutable fb_owner : int;
  mutable fb_max_occ : int;
  mutable fb_grants : int;
  fb_q : flit Queue.t;
}

(* An input unit competing for one output wire: the node's injection
   FIFO, or one VC of an incoming link's input buffer. *)
type funit = F_inject of flit Queue.t | F_buf of fbuf

(* The wire state of one mesh link ([ml]). *)
type link = {
  ml : Mesh.link;
  idx : int;                        (* position in [arr] *)
  bufs : fbuf array;                (* input FIFOs at the link's dst, per VC *)
  mutable units : funit array;      (* competitors for this wire *)
  mutable rr : int;                 (* rr pointer over [units] *)
  mutable vc_rr : int;              (* rr pointer for head-flit VC grants *)
  mutable wire_free : int;
  mutable busy_listed : bool;       (* in [busy] *)
  mutable hol_cycles : int;         (* stall cycles while the wire was free *)
}

(* A set of link indices drained in ascending order, one pass per
   flit-cycle — the active set of the flit clock. Marking an index
   ahead of the pass cursor queues it later in the same pass; marking
   one at or behind the cursor defers it to the next pass, which is
   exactly when a full in-order sweep of every link would next reach
   it. Each index is held at most once, so the arrays never overflow. *)
type worklist = {
  wl_heap : int array;              (* min-heap: members due this pass *)
  mutable wl_size : int;
  wl_next : int array;              (* members due next pass *)
  mutable wl_next_n : int;
  wl_member : bool array;
  mutable wl_cursor : int;          (* index being visited; -1 between passes *)
}

type t = {
  m : Mesh.t;
  arr : link array;                 (* every directed link, (src, dst) order *)
  index : (int * int, int) Hashtbl.t;  (* (src, dst) -> position in [arr] *)
  inject : flit Queue.t array;      (* per-source injection FIFOs *)
  mutable injected : int;
  mutable delivered : int;
  mutable next_worm : int;
  mutable last_tick : int;
  arb : worklist;          (* links some queue's front flit waits for *)
  eject : worklist;        (* links with a front flit at its destination *)
  busy : int array;        (* links whose wire may still be busy *)
  mutable busy_n : int;
  mutable min_ready : int; (* earliest future f_ready seen this tick *)
  occ_now : int array;     (* per-VC flits buffered, kept running *)
  occ_sum : float array;   (* per-VC occupancy, summed per tick *)
  occ_max : int array;
  mutable occ_cycles : int;
  c_injected : Metrics.counter;
  c_grants : Metrics.counter;
  c_delivered : Metrics.counter;
  c_stalls : Metrics.counter;
  c_hol : Metrics.counter;
  c_busy : Metrics.counter;
  c_dead_retries : Metrics.counter;
  c_dead_crossings : Metrics.counter;
  c_leaked : Metrics.counter;
  c_double_grants : Metrics.counter;
  s_occupancy : Metrics.sampler;
}

let wl_create n =
  { wl_heap = Array.make n 0; wl_size = 0; wl_next = Array.make n 0;
    wl_next_n = 0; wl_member = Array.make n false; wl_cursor = -1 }

let wl_is_empty w = w.wl_size = 0 && w.wl_next_n = 0

let wl_push w i =
  let h = w.wl_heap in
  let k = ref w.wl_size in
  while !k > 0 && h.((!k - 1) / 2) > i do
    h.(!k) <- h.((!k - 1) / 2);
    k := (!k - 1) / 2
  done;
  h.(!k) <- i;
  w.wl_size <- w.wl_size + 1

let wl_pop_min w =
  let h = w.wl_heap in
  let top = h.(0) in
  let n = w.wl_size - 1 in
  w.wl_size <- n;
  let x = h.(n) in
  let k = ref 0 and sifting = ref (n > 0) in
  while !sifting do
    let c = (2 * !k) + 1 in
    let c = if c + 1 < n && h.(c + 1) < h.(c) then c + 1 else c in
    if c < n && h.(c) < x then begin
      h.(!k) <- h.(c);
      k := c
    end
    else sifting := false
  done;
  if n > 0 then h.(!k) <- x;
  top

let wl_mark w i =
  if not w.wl_member.(i) then begin
    w.wl_member.(i) <- true;
    if i > w.wl_cursor then wl_push w i
    else begin
      w.wl_next.(w.wl_next_n) <- i;
      w.wl_next_n <- w.wl_next_n + 1
    end
  end

(* The next member due in this pass, or -1 once the pass is over (the
   deferred members then become due for the next one). *)
let wl_take w =
  if w.wl_size > 0 then begin
    let i = wl_pop_min w in
    w.wl_cursor <- i;
    w.wl_member.(i) <- false;
    i
  end
  else begin
    w.wl_cursor <- -1;
    for k = 0 to w.wl_next_n - 1 do
      wl_push w w.wl_next.(k)
    done;
    w.wl_next_n <- 0;
    -1
  end

(* Every directed mesh link is materialised up front, in (src, dst)
   order, so the per-cycle arbitration loop iterates them
   deterministically (a lazy creation order would depend on traffic). *)
let create (m : Mesh.t) =
  let cfg = m.config in
  let cap = match cfg.rx_credits with None -> -1 | Some c -> c in
  let fresh_buf vc =
    { fb_vc = vc; fb_capacity = cap; fb_credits = cap; fb_occ = 0;
      fb_owner = -1; fb_max_occ = 0; fb_grants = 0; fb_q = Queue.create () }
  in
  let pairs =
    List.init m.node_count (fun a ->
        List.filter_map
          (fun b ->
            if b >= 0 && b < m.node_count && Mesh.hops m ~src:a ~dst:b = 1 then Some (a, b)
            else None)
          [ a - m.width; a - 1; a + 1; a + m.width ])
  in
  let arr =
    List.concat pairs
    |> List.mapi (fun idx (a, b) ->
           { ml = Mesh.link_of m a b; idx; bufs = Array.init cfg.vc_count fresh_buf;
             units = [||]; rr = 0; vc_rr = 0; wire_free = 0; busy_listed = false;
             hol_cycles = 0 })
    |> Array.of_list
  in
  let inject = Array.init m.node_count (fun _ -> Queue.create ()) in
  (* the input units competing for each wire: the source node's
     injection FIFO first, then each incoming link's input-buffer VCs
     in (src, dst, vc) order *)
  Array.iter
    (fun l ->
      let ins =
        Array.to_list arr
        |> List.filter (fun l' -> l'.ml.l_dst = l.ml.l_src)
        |> List.concat_map (fun l' -> Array.to_list (Array.map (fun b -> F_buf b) l'.bufs))
      in
      l.units <- Array.of_list (F_inject inject.(l.ml.l_src) :: ins))
    arr;
  let index = Hashtbl.create 64 in
  Array.iter (fun l -> Hashtbl.add index (l.ml.l_src, l.ml.l_dst) l.idx) arr;
  let nl = Array.length arr and em = Engine.metrics m.engine in
  let c = Metrics.counter em in
  {
    m; arr; index; inject;
    injected = 0; delivered = 0; next_worm = 0; last_tick = -1;
    arb = wl_create nl; eject = wl_create nl;
    busy = Array.make nl 0; busy_n = 0; min_ready = max_int;
    occ_now = Array.make cfg.vc_count 0;
    occ_sum = Array.make cfg.vc_count 0.0;
    occ_max = Array.make cfg.vc_count 0;
    occ_cycles = 0;
    c_injected = c "net.flit.injected";
    c_grants = c "net.flit.grants";
    c_delivered = c "net.flit.delivered";
    c_stalls = c "net.flit.stall_cycles";
    c_hol = c "net.flit.hol_stall_cycles";
    c_busy = c "net.link.busy_cycles";
    c_dead_retries = c "net.flit.dead_retries";
    c_dead_crossings = c "net.link.dead_crossings";
    c_leaked = c "net.flit.leaked";
    c_double_grants = c "net.flit.double_grants";
    s_occupancy = Metrics.sampler em "net.flit.occupancy";
  }

(* ---- The flit clock ----

   One engine event per active flit-cycle. Each tick first ejects (at
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
   by a planted mutation — which is why the F1 oracle and not a hang
   is how a leak surfaces). *)

let queue_of = function F_inject q -> q | F_buf b -> b.fb_q

(* A queue's front changed: mark the link its new front waits for. A
   front past its last hop sits in the input FIFO of that last link,
   waiting to eject. *)
let refront t q =
  if not (Queue.is_empty q) then begin
    let f = Queue.peek q in
    let p = f.f_worm.w_path in
    if f.f_hop < Array.length p then wl_mark t.arb p.(f.f_hop)
    else wl_mark t.eject p.(f.f_hop - 1)
  end

(* Push into an input FIFO, keeping the running per-VC occupancy. *)
let push t fb f =
  let was_empty = Queue.is_empty fb.fb_q in
  Queue.add f fb.fb_q;
  fb.fb_occ <- fb.fb_occ + 1;
  t.occ_now.(fb.fb_vc) <- t.occ_now.(fb.fb_vc) + 1;
  if was_empty then refront t fb.fb_q

(* Pop an input FIFO's front, returning its credit upstream; a popped
   tail releases the VC. *)
let pop_buf t fb =
  let f = Queue.pop fb.fb_q in
  fb.fb_occ <- fb.fb_occ - 1;
  t.occ_now.(fb.fb_vc) <- t.occ_now.(fb.fb_vc) - 1;
  if fb.fb_credits >= 0 then fb.fb_credits <- fb.fb_credits + 1;
  if f.f_idx = f.f_worm.w_flits - 1 then fb.fb_owner <- -1;
  refront t fb.fb_q

let pop t = function
  | F_inject q ->
      ignore (Queue.pop q);
      refront t q
  | F_buf fb -> pop_buf t fb

let note_ready t f = if f.f_ready < t.min_ready then t.min_ready <- f.f_ready

(* Eject at most one arrived flit from [l]'s input FIFOs (lowest VC
   first); [true] iff one left the network. A tail completes its worm:
   the packet is delivered through the same in-order clamp as the
   analytic path (body flits of one pair never interleave on the fixed
   path, but the clamp keeps the delivery contract uniform). *)
let eject_link t l now =
  let bufs = l.bufs in
  let ejected = ref false and waiting = ref false in
  for v = 0 to Array.length bufs - 1 do
    let fb = bufs.(v) in
    if not (Queue.is_empty fb.fb_q) then begin
      let f = Queue.peek fb.fb_q in
      if f.f_hop = Array.length f.f_worm.w_path then
        if (not !ejected) && f.f_ready <= now then begin
          pop_buf t fb;
          if f.f_idx = f.f_worm.w_flits - 1 then Mesh.deliver t.m f.f_worm.w_pkt now;
          t.delivered <- t.delivered + 1;
          Metrics.bump t.c_delivered;
          ejected := true
        end
        else begin
          waiting := true;
          if f.f_ready > now then note_ready t f
        end
    end
  done;
  if !waiting then wl_mark t.eject l.idx;
  !ejected

(* Move one granted flit across the wire into [fb] (VC [vc]). *)
let advance t fb vc f now =
  if f.f_idx = 0 then begin
    f.f_worm.w_vcs.(f.f_hop) <- vc;
    fb.fb_owner <- f.f_worm.w_id
  end;
  if fb.fb_credits > 0 then fb.fb_credits <- fb.fb_credits - 1;
  f.f_hop <- f.f_hop + 1;
  f.f_ready <- now + t.m.config.per_hop_cycles;
  push t fb f;
  if fb.fb_occ > fb.fb_max_occ then fb.fb_max_occ <- fb.fb_occ;
  fb.fb_grants <- fb.fb_grants + 1;
  Metrics.bump t.c_grants;
  Metrics.sample t.s_occupancy fb.fb_occ

(* Arbitrate one wire in a single pass over its input units, scanning
   circularly from [rr]. A unit whose front flit is ready and routed
   over this wire is a waiter; the first waiter that may also take a
   VC — a head asks the per-wire VC allocator (round-robin over the
   free, credited VCs, the same [Mesh.arbitrate_by] discipline as the
   analytic crossing), a body or tail needs a credit on the VC its head
   took — wins the wire if it is free. A waiter without a grant is a
   stall cycle, and a head-of-line cycle when the wire itself is idle.
   [true] iff the wire granted a flit. *)
let arbitrate_link t s now =
  let l = s.ml in
  let m = t.m in
  let units = s.units in
  let n = Array.length units in
  let vcn = Array.length s.bufs in
  let wire_free = now >= s.wire_free in
  let routed = ref 0 and waiter = ref false and winner = ref (-1) in
  let head_vc = ref (-2) in  (* -2: the VC allocator not asked yet *)
  for k = 0 to n - 1 do
    let ui = (s.rr + k) mod n in
    let q = queue_of units.(ui) in
    if not (Queue.is_empty q) then begin
      let f = Queue.peek q in
      let w = f.f_worm in
      if f.f_hop < Array.length w.w_path && w.w_path.(f.f_hop) = s.idx then begin
        incr routed;
        if f.f_ready > now then note_ready t f
        else begin
          waiter := true;
          if wire_free && !winner < 0 then
            if f.f_idx = 0 then begin
              if !head_vc = -2 then
                (* a head may claim a free, credited VC *)
                head_vc :=
                  Mesh.arbitrate_by ~rr:s.vc_rr ~n:vcn (fun v ->
                      s.bufs.(v).fb_owner = -1 && s.bufs.(v).fb_credits <> 0);
              if !head_vc >= 0 then winner := ui
            end
            else
              let vc = w.w_vcs.(f.f_hop) in
              if vc >= 0
                 && s.bufs.(vc).fb_owner = w.w_id
                 && s.bufs.(vc).fb_credits <> 0
              then winner := ui
        end
      end
    end
  done;
  (* fronts still waiting here keep the wire in the active set; the
     winner's successor re-marks it through [pop] if routed here *)
  if !routed > (if !winner >= 0 then 1 else 0) then wl_mark t.arb s.idx;
  if !winner >= 0 then begin
    let ui = !winner in
    s.rr <- (ui + 1) mod n;
    let u = units.(ui) in
    let f = Queue.peek (queue_of u) in
    let vc = if f.f_idx = 0 then !head_vc else f.f_worm.w_vcs.(f.f_hop) in
    let fb = s.bufs.(vc) in
    if f.f_idx = 0 then begin
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
    Metrics.bump_by t.c_busy occ;
    if l.l_fault = Link_dead then begin
      Metrics.bump t.c_dead_retries;
      Metrics.bump t.c_dead_crossings
    end;
    (* F1 planted bug: on a dead-link retry the flit is popped from the
       sender but the retransmit never lands — it vanishes from the
       network, which only the conservation oracle can notice *)
    let leak = l.l_fault = Link_dead && m.mutation = Some Flit_leak && not m.leak_used in
    if leak then begin
      m.leak_used <- true;
      Metrics.bump t.c_leaked
    end
    else begin
      advance t fb vc f now;
      (* F2 planted bug: the arbiter grants a second flit of the same
         worm in the same flit-cycle without spending a second credit —
         the input FIFO overruns and credits + occupancy leaves
         capacity *)
      match m.mutation with
      | Some Double_grant
        when (not m.leak_used) && fb.fb_credits >= 0 && f.f_idx < f.f_worm.w_flits - 1
        -> (
          let q = queue_of u in
          if not (Queue.is_empty q) then
            let f2 = Queue.peek q in
            if f2.f_worm == f.f_worm && f2.f_ready <= now then begin
              m.leak_used <- true;
              pop t u;
              f2.f_hop <- f2.f_hop + 1;
              f2.f_ready <- now + m.config.per_hop_cycles;
              push t fb f2;
              Metrics.bump t.c_double_grants
            end)
      | Some (Double_grant | Credit_leak | Arb_stuck | Flit_leak) | None -> ()
    end;
    true
  end
  else begin
    if !waiter then begin
      (* a stall cycle: a ready waiter and no grant *)
      l.l_wait_cycles <- l.l_wait_cycles + 1;
      Metrics.bump t.c_stalls;
      if wire_free then begin
        (* the wire is idle yet no flit may cross: head-of-line /
           credit blocking, the quantity E18 measures *)
        s.hol_cycles <- s.hol_cycles + 1;
        Metrics.bump t.c_hol
      end
    end;
    false
  end

(* Earliest future cycle at which anything could change, or [None]
   when the network is empty or frozen. Called after a tick without
   progress, which visited every queue's front (each waits on a link of
   an active set) and so saw the earliest future [f_ready]; the wires
   still busy past [now] are all on [busy]. *)
let next_time t now =
  if wl_is_empty t.arb && wl_is_empty t.eject then None
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
    if !best = max_int then None else Some !best
  end

let rec tick t _ =
  let now = Engine.now t.m.engine in
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
    match if !progress then Some (now + 1) else next_time t now with
    | Some tn -> Engine.schedule_at t.m.engine ~time:tn (tick t)
    | None -> ()
  end

(* Decompose a packet for another node into a worm and enqueue its
   flits on the source node's injection FIFO (worms of one source
   serialize there, like the NI's outgoing FIFO). *)
let send t pkt =
  let m = t.m in
  let src = pkt.Packet.src_node and dst = pkt.Packet.dst_node in
  let words = (Packet.size_bytes pkt + 3) / 4 in
  let nf = max 1 ((words + m.config.flit_words - 1) / m.config.flit_words) in
  let p = Array.of_list (List.map (Hashtbl.find t.index) (Mesh.path m ~src ~dst)) in
  let w =
    { w_id = t.next_worm; w_pkt = pkt; w_flits = nf; w_path = p;
      w_vcs = Array.make (Array.length p) (-1) }
  in
  t.next_worm <- t.next_worm + 1;
  let ready = Engine.now m.engine + m.config.base_cycles in
  let q = t.inject.(src) in
  let was_empty = Queue.is_empty q in
  for i = 0 to nf - 1 do
    Queue.add { f_worm = w; f_idx = i; f_hop = 0; f_ready = ready } q
  done;
  if was_empty then refront t q;
  t.injected <- t.injected + nf;
  Metrics.bump_by t.c_injected nf;
  Engine.schedule_at m.engine ~time:ready (tick t)

(* Every (link, VC) input FIFO, in (from, to, vc) order. *)
let flit_stats t =
  Array.to_list t.arr
  |> List.concat_map (fun s ->
         List.mapi
           (fun i fb ->
             { fl_from = s.ml.l_src; fl_to = s.ml.l_dst; fl_vc = i;
               fl_capacity = fb.fb_capacity; fl_occ = fb.fb_occ;
               fl_credits = fb.fb_credits; fl_max_occ = fb.fb_max_occ;
               fl_grants = fb.fb_grants; fl_stall_cycles = s.ml.l_wait_cycles;
               fl_hol_cycles = s.hol_cycles })
           (Array.to_list s.bufs))

let flit_counts t =
  let buffered = ref 0 in
  Array.iter (fun q -> buffered := !buffered + Queue.length q) t.inject;
  Array.iter
    (fun l -> Array.iter (fun fb -> buffered := !buffered + Queue.length fb.fb_q) l.bufs)
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
   credits + occupancy = capacity with occupancy within capacity. The
   planted [Flit_leak] drops a flit mid-retry (the sum comes up
   short); the planted [Double_grant] pushes two flits against one
   credit (the per-FIFO identity breaks). Holds at every flit-cycle
   in an unmutated router. *)
let check_flits t =
  let injected, delivered, buffered = flit_counts t in
  let sums = Array.make (Array.length t.occ_now) 0 and fifo = ref None in
  Array.iter
    (fun l ->
      Array.iter
        (fun fb ->
          sums.(fb.fb_vc) <- sums.(fb.fb_vc) + fb.fb_occ;
          if !fifo = None && fb.fb_capacity >= 0
             && (fb.fb_credits + fb.fb_occ <> fb.fb_capacity
                || fb.fb_occ > fb.fb_capacity
                || fb.fb_occ <> Queue.length fb.fb_q)
          then
            fifo :=
              Some
                (Printf.sprintf "link %d-%d vc %d: credits %d + occupancy %d <> capacity %d"
                   l.ml.l_src l.ml.l_dst fb.fb_vc fb.fb_credits fb.fb_occ fb.fb_capacity))
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
