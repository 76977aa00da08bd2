(* The analytic crossing: packet-granularity wire reservations. A
   packet's header claims each link of its path as the wire frees, on a
   virtual channel picked by round-robin, against a deposit-side credit
   pool; the whole walk is computed at send time into one arrival cycle.
   This module owns every decision of that model: VC claim, gap
   reservation, credit pools and NACK retry, the minimal-adaptive link
   choice (it reads the reservations), the injection gate, credit
   resizing, the N1/N2 oracles and the VC/credit stats.

   The walk runs once per hop and allocates nothing there: credit slots
   are kept sorted so a claim reads the front ([Slots]) and
   reservations are (start, end) pairs in one int array. A hop's four
   token transitions (credit reserve, wire start, credit release, wire
   clear) schedule no event: each is an engine boundary, kept in a
   stream of its pool or VC, and the counters they move settle when
   read (DESIGN §12). *)

module Engine = Udma_sim.Engine
module Trace = Udma_sim.Trace
module Metrics = Udma_obs.Metrics
module Event = Udma_obs.Event
open Mesh.Types

(* On a dead link the deposit side's credit-return notifications are
   lost; the source only learns of a freed slot by retrying and being
   NACK'd, so credit grants are quantised to this polling period. *)
let nack_retry_cycles = 32

(* The (cycle, seq) boundaries of one kind of token transition, in
   (cycle, seq) order: pairs [buf.(2i), buf.(2i + 1)] from pair [head]
   on, [len] of them, in a ring of a power of two of pairs. A claim
   pushes at the back, and the engine passes them front first, so a
   settle pops the front only. Each stream but one is monotone as
   pushed: its cycles follow a VC's claims, and a VC is FIFO. The
   reserve stream can step back after [set_rx_credits] grows a pool,
   so a push slides later entries back to keep the order. *)
module Stream = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = [||]; head = 0; len = 0 }

  let push s e ~time =
    let seq = Engine.boundary e ~time in
    let cap = Array.length s.buf / 2 in
    if s.len = cap then begin
      (* double the ring, unwrapping it to start at pair 0 *)
      let buf = Array.make (2 * Int.max 2 (2 * cap)) 0 in
      for j = 0 to s.len - 1 do
        let k = (s.head + j) land (cap - 1) in
        buf.(2 * j) <- s.buf.(2 * k);
        buf.((2 * j) + 1) <- s.buf.((2 * k) + 1)
      done;
      s.buf <- buf;
      s.head <- 0
    end;
    let mask = (Array.length s.buf / 2) - 1 in
    let j = ref s.len in
    while !j > 0 && s.buf.(2 * ((s.head + !j - 1) land mask)) > time do
      let dst = 2 * ((s.head + !j) land mask) and src = 2 * ((s.head + !j - 1) land mask) in
      s.buf.(dst) <- s.buf.(src);
      s.buf.(dst + 1) <- s.buf.(src + 1);
      decr j
    done;
    let i = 2 * ((s.head + !j) land mask) in
    s.buf.(i) <- time;
    s.buf.(i + 1) <- seq;
    s.len <- s.len + 1

  let[@inline] front_passed s e =
    s.len > 0 && Engine.passed e ~time:s.buf.(2 * s.head) ~seq:s.buf.((2 * s.head) + 1)

  let pop_passed s e =
    let n = ref 0 in
    while front_passed s e do
      s.head <- (s.head + 1) land ((Array.length s.buf / 2) - 1);
      s.len <- s.len - 1;
      incr n
    done;
    !n

  (* Pop the transitions the engine has passed; how many. *)
  let[@inline] settle s e = if front_passed s e then pop_passed s e else 0
end

(* One virtual channel of a directed link. [v_tail] is the cycle the
   VC's most recent packet clears the wire — the next packet assigned
   to this VC cannot start before it (FIFO within a VC). [v_clears]
   holds the claims' tails clearing the wire, each of which takes one
   off [v_inflight] and the link's [inflight] when passed. *)
type vc = {
  mutable v_tail : int;
  mutable v_inflight : int;
  mutable v_max_depth : int;
  mutable v_grants : int;
  mutable v_skip_streak : int;      (* consecutive ready-but-skipped *)
  mutable v_max_skip : int;
  v_clears : Stream.t;
}

(* The free times of one receive FIFO's deposit slots: the cycle each
   buffer slot frees, kept in ascending order. A claim reads the
   [front], the earliest free time, and [take_insert] puts the claim's
   own release time in its place. Only free times are ever read, never
   which slot holds one, so the array is a multiset of cycles and the
   sorted one reads exactly what a scan for the earliest would. *)
module Slots = struct
  let front (s : int array) = s.(0)

  (* Drop the front and insert [v] in order: every free time before
     [v]'s place slides one slot toward the front. A release time is
     usually the latest of its pool, so [v] lands at the back. *)
  let take_insert (s : int array) v =
    let n = Array.length s in
    let i = ref 1 in
    while !i < n && s.(!i) < v do
      s.(!i - 1) <- s.(!i);
      incr i
    done;
    s.(!i - 1) <- v

  (* Growing adds slots free at [now]; shrinking keeps the [n] latest
     free times (the most-available slots are revoked first). *)
  let resize (s : int array) ~now n =
    let old = Array.length s in
    if n > old then begin
      let slots = Array.append s (Array.make (n - old) now) in
      Array.sort Int.compare slots;
      slots
    end
    else Array.sub s (old - n) n
end

(* Deposit-side credit pool for one (link, vc) receive FIFO. The
   [cp_slots] array is the analytic model ({!Slots}: a claim takes the
   earliest free time); the three counters are the runtime token state
   the N1 oracle checks, moved at reservation / wire start / release so
   that held + inflight + free = capacity at every cycle. Each claim
   pushes one transition on each of the three streams; [settle_pool]
   applies the passed ones. *)
type pool = {
  mutable cp_capacity : int;
  mutable cp_slots : int array;
  mutable cp_held : int;
  mutable cp_inflight : int;
  mutable cp_free : int;
  cp_reserves : Stream.t;           (* free -> held *)
  cp_starts : Stream.t;             (* held -> in flight *)
  cp_releases : Stream.t;           (* in flight -> free *)
}

(* The wire state of one mesh link ([ml]). [busy_until] is the cycle at which the wire
   finishes the last packet that reserved it; [inflight] counts packets
   that have claimed the link and whose tails have not yet cleared it
   (the FIFO depth a head-of-line packet sees). With more than one VC
   the wire is shared by reservation: [busy.(0 .. 2 * busy_n - 1)]
   holds the outstanding future reservations as (start, end) pairs,
   disjoint and sorted by start, so a later claim can backfill an idle
   window instead of queueing behind the last tail. *)
type link = {
  ml : Mesh.link;
  mutable busy_until : int;
  mutable inflight : int;
  mutable rr : int;
  vcs : vc array;
  mutable busy : int array;
  mutable busy_n : int;
  mutable pools : pool array;       (* [||] = unlimited credits *)
}

type t = {
  m : Mesh.t;
  links : (int * int, link) Hashtbl.t;  (* created on first use *)
  by_dir : link option array;
      (* the same links by [dir_slot], for the per-hop lookup *)
  mutable credits : int option;     (* current deposit-FIFO capacity *)
  adaptive_turns : Metrics.counter;
  dead_crossings : Metrics.counter;
  nacks : Metrics.counter;
  credit_stalls : Metrics.counter;
  credit_stall_cycles : Metrics.counter;
  wait_cycles : Metrics.counter;
  queued : Metrics.counter;
  xmits : Metrics.counter;
  busy_cycles : Metrics.counter;
  vc_grants : Metrics.counter;
  vc_grants_by_index : Metrics.counter array;
  link_depth : Metrics.sampler;
  vc_depth : Metrics.sampler;
}

(* Link waits reach only the global trace sink, when one is installed. *)
let trace = Trace.create ~enabled:false ()

let create (m : Mesh.t) =
  let em = Engine.metrics m.engine in
  let c = Metrics.counter em in
  {
    m;
    links = Hashtbl.create 64;
    by_dir = Array.make (4 * m.node_count) None;
    credits = m.config.rx_credits;
    adaptive_turns = c "net.router.adaptive_turns";
    dead_crossings = c "net.link.dead_crossings";
    nacks = c "net.credit.nacks";
    credit_stalls = c "net.credit.stalls";
    credit_stall_cycles = c "net.credit.stall_cycles";
    wait_cycles = c "net.link.wait_cycles";
    queued = c "net.link.queued";
    xmits = c "net.link.xmits";
    busy_cycles = c "net.link.busy_cycles";
    vc_grants = c "net.vc.grants";
    vc_grants_by_index =
      Array.init m.config.vc_count (fun i -> c (Printf.sprintf "net.vc.grants.%d" i));
    link_depth = Metrics.sampler em "net.link.depth";
    vc_depth = Metrics.sampler em "net.vc.depth";
  }

let fresh_vc () =
  { v_tail = 0; v_inflight = 0; v_max_depth = 0; v_grants = 0;
    v_skip_streak = 0; v_max_skip = 0; v_clears = Stream.create () }

let fresh_pool ~now n =
  { cp_capacity = n; cp_slots = Array.make n now; cp_held = 0; cp_inflight = 0; cp_free = n;
    cp_reserves = Stream.create (); cp_starts = Stream.create ();
    cp_releases = Stream.create () }

(* The [by_dir] slot of the link from [a] to its neighbour [b]: four
   per node, one per direction; -1 when [b] is no neighbour. *)
let dir_slot t a b =
  let d = b - a and w = t.m.width in
  if d = 1 then 4 * a
  else if d = -1 then (4 * a) + 1
  else if d = w then (4 * a) + 2
  else if d = -w then (4 * a) + 3
  else -1

let link_of t a b =
  let slot = dir_slot t a b in
  match if slot < 0 then Hashtbl.find_opt t.links (a, b) else t.by_dir.(slot) with
  | Some l -> l
  | None ->
      let now = Engine.now t.m.engine and n = t.m.config.vc_count in
      let l =
        { ml = Mesh.link_of t.m a b; busy_until = 0; inflight = 0; rr = 0;
          vcs = Array.init n (fun _ -> fresh_vc ()); busy = [||]; busy_n = 0;
          pools =
            (match t.credits with
            | None -> [||]
            | Some c -> Array.init n (fun _ -> fresh_pool ~now c)) }
      in
      Hashtbl.add t.links (a, b) l;
      if slot >= 0 then t.by_dir.(slot) <- Some l;
      l

(* Apply the wire clears the engine has passed, on every VC of [l]
   (the link's depth counts them all). *)
let settle_vcs e l =
  for i = 0 to Array.length l.vcs - 1 do
    let v = l.vcs.(i) in
    let n = Stream.settle v.v_clears e in
    v.v_inflight <- v.v_inflight - n;
    l.inflight <- l.inflight - n
  done

let settle_pool e p =
  let r = Stream.settle p.cp_reserves e in
  let s = Stream.settle p.cp_starts e in
  let f = Stream.settle p.cp_releases e in
  p.cp_held <- p.cp_held + r - s;
  p.cp_inflight <- p.cp_inflight + s - f;
  p.cp_free <- p.cp_free + f - r

let settle_all t =
  let e = t.m.engine in
  Hashtbl.iter
    (fun _ l ->
      settle_vcs e l;
      Array.iter (settle_pool e) l.pools)
    t.links

(* The links in (from, to) order. *)
let sorted_links t =
  List.filter_map
    (fun (ml : Mesh.link) -> Hashtbl.find_opt t.links (ml.l_src, ml.l_dst))
    (Mesh.sorted_links t.m)

(* Resize the deposit FIFOs under load. Growing adds slots free at
   [now]; shrinking revokes the most-available slots first (largest
   remaining reservation times survive, so in-use buffers are never
   yanked from under a packet). The counter side moves [capacity] and
   [free] by the same delta, so the N1 conservation sum is preserved
   even with reservation/start/release transitions still ahead — [cp_free]
   can go transiently negative on a shrink while revoked buffers drain,
   which models the receiver waiting for occupied slots to empty. *)
let set_rx_credits t credits =
  settle_all t;
  t.credits <- credits;
  let now = Engine.now t.m.engine in
  Hashtbl.iter
    (fun _ s ->
      match credits with
      | None -> s.pools <- [||]
      | Some n ->
          if Array.length s.pools = 0 then
            s.pools <- Array.init (Array.length s.vcs) (fun _ -> fresh_pool ~now n)
          else
            Array.iter
              (fun p ->
                let old = p.cp_capacity in
                if n <> old then begin
                  p.cp_slots <- Slots.resize p.cp_slots ~now n;
                  p.cp_capacity <- n;
                  p.cp_free <- p.cp_free + (n - old)
                end)
              s.pools)
    t.links

(* The next node from [a] toward [dst]. Dimension-order always
   exhausts X first; minimal-adaptive picks, among the (at most two)
   productive links, a live one over a dead one and then the one with
   the smaller [busy_until], taking the X link on ties so an idle mesh
   reproduces the dimension-order path exactly. *)
let next_hop t a dst =
  let m = t.m in
  Mesh.check_node m a "coords";
  Mesh.check_node m dst "coords";
  let w = m.width in
  let x = a mod w and y = a / w and dx = dst mod w and dy = dst / w in
  let bx = Mesh.node_id m ~x:(Mesh.step x dx) ~y in
  let by = Mesh.node_id m ~x ~y:(Mesh.step y dy) in
  if x = dx then by
  else if y = dy || m.config.routing = `Dimension_order then bx
  else
    let lx = link_of t a bx and ly = link_of t a by in
    let dead l = match l.ml.l_fault with Link_dead -> 1 | Link_ok | Link_slow _ -> 0 in
    if dead ly < dead lx || (dead ly = dead lx && ly.busy_until < lx.busy_until) then by
    else bx

(* The links the configured policy would pick right now, against the
   current link state, without claiming anything. *)
let route t ~src ~dst =
  Mesh.check_node t.m src "route";
  Mesh.check_node t.m dst "route";
  let rec go a acc =
    if a = dst then List.rev acc
    else
      let b = next_hop t a dst in
      go b ((a, b) :: acc)
  in
  go src []

(* Assign the claim to a virtual channel: round-robin among the ready
   VCs (tail already clear of the wire when this head arrives); when
   none is ready, the one that drains first. *)
let claim_vc s ~head =
  let vcs = s.vcs in
  let vcn = Array.length vcs in
  if vcn = 1 then 0
  else begin
    let c =
      (* [Mesh.arbitrate_by] over the ready VCs, as a loop *)
      let g = ref (-1) and k = ref 0 in
      while !g < 0 && !k < vcn do
        let i = s.rr + !k in
        let i = if i >= vcn then i - vcn else i in
        if vcs.(i).v_tail <= head then g := i;
        incr k
      done;
      if !g >= 0 then !g
      else begin
        let best = ref 0 in
        for i = 1 to vcn - 1 do
          if vcs.(i).v_tail < vcs.(!best).v_tail then best := i
        done;
        !best
      end
    in
    for i = 0 to vcn - 1 do
      let v = vcs.(i) in
      if i = c then v.v_skip_streak <- 0
      else if v.v_tail <= head then begin
        v.v_skip_streak <- v.v_skip_streak + 1;
        if v.v_skip_streak > v.v_max_skip then v.v_max_skip <- v.v_skip_streak
      end
      else v.v_skip_streak <- 0
    done;
    s.rr <- (if c + 1 = vcn then 0 else c + 1);
    c
  end

(* The reservations of [l.busy], in place. [prune_iv] drops those at
   the front that ended by [now]. *)
let prune_iv l now =
  let b = l.busy and n = l.busy_n in
  let k = ref 0 in
  while !k < n && b.((2 * !k) + 1) <= now do
    incr k
  done;
  if !k > 0 then begin
    Array.blit b (2 * !k) b 0 (2 * (n - !k));
    l.busy_n <- n - !k
  end

(* Earliest [start >= earliest] such that [start, start + len) misses
   every reservation. *)
let fit_gap l earliest len =
  let b = l.busy and st = ref earliest and i = ref 0 in
  while !i < l.busy_n && !st + len > b.(2 * !i) do
    st := Int.max !st b.((2 * !i) + 1);
    incr i
  done;
  !st

(* Insert [(st, e)] behind every reservation starting at or before [st]. *)
let insert_iv l st e =
  let n = l.busy_n in
  if 2 * n = Array.length l.busy then begin
    let b = Array.make (Int.max 16 (4 * n)) 0 in
    Array.blit l.busy 0 b 0 (2 * n);
    l.busy <- b
  end;
  let b = l.busy in
  let i = ref n in
  while !i > 0 && st < b.(2 * (!i - 1)) do
    b.(2 * !i) <- b.(2 * (!i - 1));
    b.((2 * !i) + 1) <- b.((2 * !i) - 1);
    decr i
  done;
  b.(2 * !i) <- st;
  b.((2 * !i) + 1) <- e;
  l.busy_n <- n + 1

(* Wormhole walk toward the destination: the header claims each link as
   soon as the wire is free, each claim holds the link for the packet's
   full wire occupancy, and the tail crosses the final wire after the
   header ejects. With idle, healthy links this telescopes to exactly
   the closed-form [base + hops·per_hop + words·per_word]. The link
   choice happens here, hop by hop, so minimal-adaptive sees the busy
   state left by every earlier claim — including this packet's own.

   With [vc_count = 1] and unlimited credits the claim below reduces
   exactly to the single-FIFO model (start = max head busy_until, one
   depth decrement per hop): VC 0's tail equals [busy_until] and the
   credit floor equals the head's arrival, so timing and metrics are
   identical — the property the E1/E2/E11/E12 anchors pin down. *)
let arrival t ~now ~src ~dst ~words =
  let m = t.m in
  let cfg = m.config in
  let occ = words * cfg.per_word_cycles in
  let head = ref (now + cfg.base_cycles) in
  (* the packet's own tail cannot clear a link faster than that link's
     (fault-scaled) occupancy; on healthy links this is always beaten
     by the head+occ term below, so it only matters on slow/dead links *)
  let tail = ref 0 in
  let here = ref src in
  while !here <> dst do
    let a = !here in
    let b = next_hop t a dst in
    if abs (b - a) = m.width && a mod m.width <> dst mod m.width then
      (* adaptive took the Y link although X was productive too *)
      Metrics.bump t.adaptive_turns;
    let s = link_of t a b in
    settle_vcs m.engine s;
    let l = s.ml in
    let locc = occ * Mesh.occupancy_factor l.l_fault in
    (match l.l_fault with
     | Link_dead -> Metrics.bump t.dead_crossings
     | Link_ok | Link_slow _ -> ());
    let vcn = Array.length s.vcs in
    let ci = claim_vc s ~head:!head in
    let v = s.vcs.(ci) in
    (* deposit-side credit for the receive FIFO behind this link: take
       the slot that frees soonest; on a dead link the grant is pushed
       to the next NACK'd retry poll *)
    let pooled = Array.length s.pools > 0 in
    let slot_free = if pooled then Slots.front s.pools.(ci).cp_slots else 0 in
    let credit_floor =
      if (not pooled) || slot_free <= !head then !head
      else
        match l.l_fault with
        | Link_dead ->
            let polls =
              (slot_free - !head + nack_retry_cycles - 1) / nack_retry_cycles
            in
            Metrics.bump_by t.nacks polls;
            !head + (polls * nack_retry_cycles)
        | Link_ok | Link_slow _ -> slot_free
    in
    let cstall = credit_floor - !head in
    if cstall > 0 then begin
      Metrics.bump t.credit_stalls;
      Metrics.bump_by t.credit_stall_cycles cstall
    end;
    let earliest = Int.max credit_floor v.v_tail in
    let start =
      if vcn = 1 then Int.max earliest s.busy_until
      else begin
        prune_iv s now;
        let st = fit_gap s earliest locc in
        insert_iv s st (st + locc);
        st
      end
    in
    let wait = start - !head in
    s.inflight <- s.inflight + 1;
    if s.inflight > l.l_max_depth then l.l_max_depth <- s.inflight;
    if wait > 0 then begin
      l.l_wait_cycles <- l.l_wait_cycles + wait;
      Metrics.bump_by t.wait_cycles wait;
      Metrics.bump t.queued;
      if Trace.active trace then
        Trace.record trace ~time:now Event.Ni
          (Event.Link_wait { from_node = a; to_node = b; wait; depth = s.inflight })
    end;
    Metrics.sample t.link_depth s.inflight;
    if start + locc > s.busy_until then s.busy_until <- start + locc;
    if start + locc > !tail then tail := start + locc;
    l.l_xmits <- l.l_xmits + 1;
    l.l_busy_cycles <- l.l_busy_cycles + locc;
    Metrics.bump t.xmits;
    Metrics.bump_by t.busy_cycles locc;
    v.v_tail <- start + locc;
    v.v_inflight <- v.v_inflight + 1;
    if v.v_inflight > v.v_max_depth then v.v_max_depth <- v.v_inflight;
    if vcn > 1 then begin
      v.v_grants <- v.v_grants + 1;
      Metrics.bump t.vc_grants;
      Metrics.bump t.vc_grants_by_index.(ci);
      Metrics.sample t.vc_depth v.v_inflight
    end;
    if pooled then begin
      let p = s.pools.(ci) in
      settle_pool m.engine p;
      let rel = start + locc + cfg.per_hop_cycles in
      Slots.take_insert p.cp_slots rel;
      Stream.push p.cp_reserves m.engine ~time:(Int.max now slot_free);
      Stream.push p.cp_starts m.engine ~time:start;
      Stream.push p.cp_releases m.engine ~time:rel
    end;
    Stream.push v.v_clears m.engine ~time:(start + locc);
    head := start + cfg.per_hop_cycles;
    here := b
  done;
  Int.max (!head + occ) !tail

let send t pkt =
  let words = (Packet.size_bytes pkt + 3) / 4 in
  Mesh.deliver t.m pkt
    (arrival t ~now:(Engine.now t.m.engine) ~src:pkt.Packet.src_node
       ~dst:pkt.Packet.dst_node ~words)

(* Earliest cycle the first-hop link toward [dst] has a deposit slot
   free on some VC — the injection gate a source consults before
   handing a packet to the NI. Only the first hop is checked (the
   source cannot see deeper credit state); later hops' credit waits
   still surface inside the walk as [net.credit.stalls]. *)
let injection_ready t ~src ~dst =
  let m = t.m in
  let now = Engine.now m.engine in
  if src = dst || Option.is_none t.credits then now
  else begin
    Mesh.check_node m src "injection_ready";
    Mesh.check_node m dst "injection_ready";
    let s = link_of t src (next_hop t src dst) in
    if Array.length s.pools = 0 then now
    else begin
      let best = ref max_int in
      for v = 0 to Array.length s.pools - 1 do
        best := Int.min !best (Slots.front s.pools.(v).cp_slots)
      done;
      Int.max now !best
    end
  end

(* [f l i] for every VC [i] of every link [l], in (from, to, vc) order;
   [pools] picks the VCs that have a credit pool. *)
let per_vc ?(pools = false) t f =
  List.concat_map
    (fun l ->
      List.init (if pools then Array.length l.pools else Array.length l.vcs) (f l))
    (sorted_links t)

let vc_stats t =
  per_vc t (fun l i ->
      let v = l.vcs.(i) in
      { vc_from = l.ml.l_src; vc_to = l.ml.l_dst; vc_index = i; vc_grants = v.v_grants;
        vc_max_depth = v.v_max_depth; vc_max_skip = v.v_max_skip })

let credit_stats t =
  settle_all t;
  per_vc ~pools:true t (fun l i ->
      let p = l.pools.(i) in
      { cr_from = l.ml.l_src; cr_to = l.ml.l_dst; cr_vc = i; cr_capacity = p.cp_capacity;
        cr_held = p.cp_held; cr_inflight = p.cp_inflight; cr_free = p.cp_free })

(* N1: credit conservation. Every token transition moves a unit
   between exactly two of {free, held, inflight}, and a resize
   moves [capacity] and [free] together, so the sum can only drift if
   a return was dropped. [cp_free] is
   allowed to be negative transiently after a shrink (revoked buffers
   still draining); the sum is the invariant. *)
let check_credits t =
  List.find_map
    (fun c ->
      if c.cr_held + c.cr_inflight + c.cr_free <> c.cr_capacity || c.cr_inflight < 0
      then
        Some
          (Printf.sprintf
             "link %d-%d vc %d: held %d + inflight %d + free %d <> capacity %d"
             c.cr_from c.cr_to c.cr_vc c.cr_held c.cr_inflight c.cr_free
             c.cr_capacity)
      else None)
    (credit_stats t)

(* N2: arbitration fairness. Correct round-robin bounds a continuously
   ready VC's skip streak to vc_count - 1 (see [Mesh.arbitrate_by]); a
   streak reaching vc_count means some VC is being starved. *)
let check_arbitration t =
  let vcn = t.m.config.vc_count in
  if vcn = 1 then None
  else
    List.find_map
      (fun (l, i) ->
        let streak = l.vcs.(i).v_skip_streak in
        if streak >= vcn then
          Some
            (Printf.sprintf
               "link %d-%d vc %d: ready but skipped %d consecutive arbitration \
                rounds (vc_count %d)"
               l.ml.l_src l.ml.l_dst i streak vcn)
        else None)
      (per_vc t (fun l i -> (l, i)))
