(* Unit tests for the SHRIMP network stack: NIPT, FIFOs, router, the
   network interface, the multi-node system and the messaging layer. *)

module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Initiator = Udma.Initiator
module Status = Udma.Status
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Kernel = Udma_os.Kernel
module Vm = Udma_os.Vm
module Packet = Udma_shrimp.Packet
module Backend = Udma_protect.Backend
module Fifo = Udma_shrimp.Fifo
module Router = Udma_shrimp.Router
module Ni = Udma_shrimp.Network_interface
module Payload_pool = Udma_shrimp.Payload_pool
module System = Udma_shrimp.System
module Messaging = Udma_shrimp.Messaging
module Rng = Udma_sim.Rng

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let pattern n seed = Bytes.init n (fun i -> Char.chr ((i + seed) land 0xff))

(* ---------- NIPT (proxy backend's destination table) ---------- *)

let test_nipt_basic () =
  let t = Backend.create Backend.Proxy ~entries:32 () in
  checki "capacity" 32 (Backend.capacity t);
  checkb "empty" true (Backend.decode t ~index:0 = None);
  ignore (Backend.grant t ~owner:1 ~index:5 ~dst_node:2 ~dst_frame:77);
  (match Backend.decode t ~index:5 with
  | Some e ->
      checki "node" 2 e.Backend.dst_node;
      checki "frame" 77 e.Backend.dst_frame
  | None -> Alcotest.fail "entry lost");
  checki "valid count" 1 (Backend.valid_count t);
  ignore (Backend.revoke t ~index:5);
  checkb "cleared" true (Backend.decode t ~index:5 = None);
  checkb "out of range is None" true (Backend.decode t ~index:99 = None)

(* ---------- Fifo ---------- *)

let pkt ?(len = 100) seq =
  { Packet.src_node = 0; dst_node = 1; dst_paddr = 0;
    payload = Bytes.make len 'x'; seq }

let test_fifo_order_and_capacity () =
  let f = Fifo.create ~capacity_bytes:300 in
  checkb "push 1" true (Fifo.push f (pkt 1));
  checkb "push 2" true (Fifo.push f (pkt 2));
  checkb "third does not fit (2x116 used)" false (Fifo.push f (pkt ~len:100 3));
  checki "rejections" 1 (Fifo.rejections f);
  checki "fifo order" 1 (Fifo.pop f).Packet.seq;
  checkb "space reclaimed" true (Fifo.push f (pkt 3));
  checki "length" 2 (Fifo.length f);
  checki "then 2" 2 (Fifo.pop f).Packet.seq;
  checki "then 3" 3 (Fifo.pop f).Packet.seq;
  Alcotest.check_raises "pop on empty" (Invalid_argument "Fifo.pop: empty")
    (fun () -> ignore (Fifo.pop f));
  (* the ring wraps and grows while it holds packets: order and bytes
     hold across both *)
  let f = Fifo.create ~capacity_bytes:(20 * 64) in
  let next = ref 0 and front = ref 0 in
  for round = 1 to 30 do
    for _ = 1 to round mod 7 + 1 do
      if Fifo.push f (pkt ~len:4 !next) then incr next
    done;
    for _ = 1 to round mod 5 do
      if Fifo.length f > 0 then begin
        checki "ring order" !front (Fifo.pop f).Packet.seq;
        incr front
      end
    done
  done;
  checki "ring length" (!next - !front) (Fifo.length f);
  checki "no rejections" 0 (Fifo.rejections f);
  while Fifo.length f > 0 do
    checki "drain order" !front (Fifo.pop f).Packet.seq;
    incr front
  done;
  checkb "all bytes back" true (Fifo.push f (pkt ~len:((20 * 64) - 16) 0))

(* ---------- Router ---------- *)

let test_router_mesh_hops () =
  let engine = Engine.create () in
  let r = Router.create ~engine ~nodes:9 () in
  (* 3x3 mesh, row-major ids *)
  Alcotest.(check (pair int int)) "coords of 4" (1, 1) (Router.coords r 4);
  checki "self" 0 (Router.hops r ~src:4 ~dst:4);
  checki "adjacent" 1 (Router.hops r ~src:0 ~dst:1);
  checki "corner to corner" 4 (Router.hops r ~src:0 ~dst:8)

let test_router_delivery_and_latency () =
  let engine = Engine.create () in
  let r = Router.create ~engine ~nodes:4 () in
  let got = ref [] in
  Router.register r ~node_id:1 (fun p -> got := (p.Packet.seq, Engine.now engine) :: !got);
  let p = { (pkt 7) with Packet.dst_node = 1 } in
  Router.send r p;
  checkb "not yet delivered" true (!got = []);
  Engine.run_until_idle engine;
  (match !got with
  | [ (seq, at) ] ->
      checki "right packet" 7 seq;
      checki "at the modelled latency"
        (Router.latency_cycles r ~src:0 ~dst:1 ~bytes:(Packet.size_bytes p))
        at
  | _ -> Alcotest.fail "expected exactly one delivery");
  checki "counters" 1 (Router.packets_routed r)

let test_router_unregistered_sink () =
  let engine = Engine.create () in
  let r = Router.create ~engine ~nodes:2 () in
  checkb "raises" true
    (try Router.send r (pkt 1); false with Invalid_argument _ -> true)

(* With contention enabled but no competing traffic the per-link walk
   must telescope to exactly the closed-form latency. *)
let contended_router nodes =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes
      ~config:{ Router.default_config with Router.link_contention = true }
      ()
  in
  (engine, r)

let test_router_contention_idle_closed_form () =
  let engine, r = contended_router 9 in
  let arrivals = ref [] in
  for d = 1 to 8 do
    Router.register r ~node_id:d (fun p ->
        arrivals := (p.Packet.dst_node, Engine.now engine) :: !arrivals)
  done;
  (* one at a time, drained between sends: links are always idle *)
  for d = 1 to 8 do
    let p = { (pkt d) with Packet.dst_node = d } in
    let t0 = Engine.now engine in
    Router.send r p;
    Engine.run_until_idle engine;
    match List.assoc_opt d !arrivals with
    | Some at ->
        checki
          (Printf.sprintf "closed form to node %d" d)
          (t0 + Router.latency_cycles r ~src:0 ~dst:d
                  ~bytes:(Packet.size_bytes p))
          at
    | None -> Alcotest.fail "no delivery"
  done;
  (* idle links never made anyone wait *)
  checki "no wait cycles" 0
    (List.fold_left
       (fun a (l : Router.link_stat) -> a + l.Router.wait_cycles)
       0 (Router.link_stats r))

let test_router_contention_queues_shared_link () =
  (* two packets, same source, back to back: the second must queue
     behind the first's wire occupancy with contention on, and must
     not without *)
  let arrival contention =
    let engine = Engine.create () in
    let r =
      Router.create ~engine ~nodes:4
        ~config:{ Router.default_config with Router.link_contention = contention }
        ()
    in
    let last = ref 0 in
    Router.register r ~node_id:1 (fun _ -> last := Engine.now engine);
    Router.send r { (pkt ~len:1000 0) with Packet.dst_node = 1 };
    Router.send r { (pkt ~len:1000 1) with Packet.dst_node = 1 };
    Engine.run_until_idle engine;
    !last
  in
  let free = arrival false and contended = arrival true in
  checkb "second packet delayed by link occupancy" true (contended > free);
  (* and the delay is at least the first packet's wire occupancy *)
  checkb "delay covers serialisation" true (contended - free >= 250)

(* Regression for the phantom-node bug: 5 nodes cover a 3-wide mesh
   with a partial top row, so the dimension-order path 4 -> 2 used to
   cross node (2,1) = 5 >= node_count. Such counts are now rejected. *)
let test_router_rejects_partial_row () =
  List.iter
    (fun n -> checkb (Printf.sprintf "valid %d" n) true (Router.valid_nodes n))
    [ 2; 4; 6; 9; 12; 16; 20; 25; 36; 64 ];
  List.iter
    (fun n ->
      checkb (Printf.sprintf "invalid %d" n) false (Router.valid_nodes n);
      checkb
        (Printf.sprintf "create %d raises" n)
        true
        (try
           ignore (Router.create ~engine:(Engine.create ()) ~nodes:n ());
           false
         with Invalid_argument _ -> true))
    [ 5; 7; 8; 10; 11 ];
  (* the bug's own example, on the nearest valid count: every hop of
     4 -> 2 on the 6-node (3x2) mesh stays in range *)
  let r = Router.create ~engine:(Engine.create ()) ~nodes:6 () in
  List.iter
    (fun (a, b) ->
      checkb "hop in range" true (a >= 0 && a < 6 && b >= 0 && b < 6))
    (Router.path r ~src:4 ~dst:2)

(* Negative timing is rejected when the router is built, in either
   crossing, rather than deep inside a run (a negative analytic delay
   raises in [Engine.schedule]; a negative flit delay would make a
   flit ready in the past). Zero stays legal. *)
let test_router_rejects_negative_timing () =
  let build config =
    ignore (Router.create ~engine:(Engine.create ()) ~nodes:4 ~config ())
  in
  let d = Router.default_config in
  List.iter
    (fun crossing ->
      let base = { d with Router.link_contention = true; crossing } in
      List.iter
        (fun (what, config) ->
          checkb what true
            (try build config; false with Invalid_argument _ -> true))
        [ ("base_cycles < 0", { base with Router.base_cycles = -1 });
          ("per_hop_cycles < 0", { base with Router.per_hop_cycles = -1 });
          ("per_word_cycles < 0", { base with Router.per_word_cycles = -1 }) ];
      build
        { base with
          Router.base_cycles = 0; per_hop_cycles = 0; per_word_cycles = 0 })
    [ `Analytic; `Flit ]

(* One check judges a router config: every rejected config gives
   [Error], and [create] raises [Invalid_argument] with that same
   message; accepted configs build. *)
let test_router_validate () =
  let d = Router.default_config in
  let create ~nodes config =
    match Router.create ~engine:(Engine.create ()) ~nodes ~config () with
    | _ -> None
    | exception Invalid_argument msg -> Some msg
  in
  List.iter
    (fun (what, nodes, config) ->
      match Router.validate ~nodes config with
      | Ok () -> Alcotest.failf "%s: accepted" what
      | Error msg ->
          check Alcotest.(option string) (what ^ ": create raises the same message")
            (Some msg) (create ~nodes config))
    [ ("no nodes", 0, d);
      ("partial row", 7, d);
      ("0 VCs", 4, { d with Router.vc_count = 0 });
      ("5 VCs", 4, { d with Router.vc_count = 5 });
      ("0 credits", 4, { d with Router.rx_credits = Some 0 });
      ("0-word flits", 4, { d with Router.flit_words = 0 });
      ("negative base", 4, { d with Router.base_cycles = -1 });
      ("negative per-word", 4, { d with Router.per_word_cycles = -1 });
      ( "adaptive flit",
        4,
        { d with Router.crossing = `Flit; routing = `Minimal_adaptive } ) ];
  List.iter
    (fun (nodes, config) ->
      checkb "valid config accepted" true (Router.validate ~nodes config = Ok ());
      checkb "and built" true (create ~nodes config = None))
    [ (4, d);
      (16, { d with Router.link_contention = true; vc_count = 4; rx_credits = Some 1 });
      (9, { d with Router.link_contention = true; crossing = `Flit; flit_words = 4 }) ]

(* With unlimited credits the shared-wire reservation list never opens
   a gap, so any VC count must time a contended burst identically to
   the single-FIFO model — the degeneration DESIGN.md §12 relies on —
   while the allocator still spreads packets over the VCs. *)
let test_router_vcs_degenerate_timing () =
  let arrivals vc_count =
    let engine = Engine.create () in
    let r =
      Router.create ~engine ~nodes:4
        ~config:
          { Router.default_config with
            Router.link_contention = true;
            Router.vc_count }
        ()
    in
    let got = ref [] in
    for d = 1 to 3 do
      Router.register r ~node_id:d (fun p ->
          got := (d, p.Packet.seq, Engine.now engine) :: !got)
    done;
    for s = 0 to 5 do
      Router.send r { (pkt ~len:800 s) with Packet.dst_node = 1 + (s mod 3) }
    done;
    Engine.run_until_idle engine;
    (List.rev !got, r)
  in
  let base, _ = arrivals 1 in
  List.iter
    (fun vcs ->
      let times, r = arrivals vcs in
      checkb
        (Printf.sprintf "%d VCs time the burst identically" vcs)
        true (times = base);
      (* every VC of the loaded 0->1 link saw at least one grant *)
      let grants =
        List.filter
          (fun (v : Router.vc_stat) ->
            v.Router.vc_from = 0 && v.Router.vc_to = 1
            && v.Router.vc_grants > 0)
          (Router.vc_stats r)
      in
      checkb
        (Printf.sprintf "%d VCs all granted on the shared link" vcs)
        true
        (List.length grants = vcs))
    [ 2; 4 ]

(* Finite deposit credits: a back-to-back burst overruns one slot, so
   later claims stall on the wire (net.credit.stalls), the injection
   gate reports a future ready time mid-burst, conservation holds at
   the end, and a dead link funnels grants through NACK retry polls. *)
let test_router_credit_gate () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes:4
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          Router.rx_credits = Some 1 }
      ()
  in
  Router.register r ~node_id:1 (fun _ -> ());
  checkb "idle gate is open" true
    (Router.injection_ready r ~src:0 ~dst:1 = Engine.now engine);
  for s = 0 to 3 do
    Router.send r { (pkt ~len:1000 s) with Packet.dst_node = 1 }
  done;
  checkb "gate closes mid-burst" true
    (Router.injection_ready r ~src:0 ~dst:1 > Engine.now engine);
  Engine.run_until_idle engine;
  let m = Engine.metrics engine in
  checkb "stalls counted" true (Udma_obs.Metrics.get m "net.credit.stalls" > 0);
  checkb "conservation clean" true (Router.check_credits r = None);
  List.iter
    (fun (c : Router.credit_stat) ->
      checki "drained pool all free" c.Router.cr_capacity c.Router.cr_free)
    (Router.credit_stats r);
  (* dead link: the grant is quantised into retry polls *)
  Router.set_link_fault r ~from_node:0 ~to_node:1 Router.Link_dead;
  for s = 4 to 6 do
    Router.send r { (pkt ~len:1000 s) with Packet.dst_node = 1 }
  done;
  Engine.run_until_idle engine;
  checkb "nacks counted across the dead link" true
    (Udma_obs.Metrics.get m "net.credit.nacks" > 0);
  checkb "conservation survives the dead link" true
    (Router.check_credits r = None)

let adaptive_router ?(nodes = 4) () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          Router.routing = `Minimal_adaptive }
      ()
  in
  (engine, r)

let link_xmits r ~from_node ~to_node =
  match
    List.find_opt
      (fun (l : Router.link_stat) ->
        l.Router.from_node = from_node && l.Router.to_node = to_node)
      (Router.link_stats r)
  with
  | Some l -> l.Router.xmits
  | None -> 0

(* On an idle mesh minimal-adaptive must reproduce the dimension-order
   path exactly (ties go to the X link). *)
let test_adaptive_idle_matches_dimension_order () =
  let _, r = adaptive_router ~nodes:9 () in
  for src = 0 to 8 do
    for dst = 0 to 8 do
      if src <> dst then
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "route %d->%d" src dst)
          (Router.path r ~src ~dst)
          (Router.route r ~src ~dst)
    done
  done

(* 2x2 mesh, X link 0->1 killed: adaptive must take the Y detour
   0->2->3 and never touch the dead link; the detour has the same hop
   count, so the arrival is still the closed form. *)
let test_adaptive_routes_around_dead_link () =
  let engine, r = adaptive_router () in
  Router.set_link_fault r ~from_node:0 ~to_node:1 Router.Link_dead;
  let at = ref 0 in
  Router.register r ~node_id:3 (fun _ -> at := Engine.now engine);
  let p = { (pkt 1) with Packet.dst_node = 3 } in
  Router.send r p;
  Engine.run_until_idle engine;
  checki "dead link untouched" 0 (link_xmits r ~from_node:0 ~to_node:1);
  checki "detour first hop" 1 (link_xmits r ~from_node:0 ~to_node:2);
  checki "detour second hop" 1 (link_xmits r ~from_node:2 ~to_node:3);
  checki "no dead crossings" 0
    (Udma_obs.Metrics.get (Engine.metrics engine) "net.link.dead_crossings");
  checki "closed-form arrival"
    (Router.latency_cycles r ~src:0 ~dst:3 ~bytes:(Packet.size_bytes p))
    !at

(* The same fault under dimension-order: the fixed path has no
   alternative, so the packet crosses the dead link on the slow
   recovery path — counted, and far slower than the closed form. *)
let test_dimension_order_crosses_dead_link () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes:4
      ~config:{ Router.default_config with Router.link_contention = true }
      ()
  in
  Router.set_link_fault r ~from_node:0 ~to_node:1 Router.Link_dead;
  let at = ref 0 in
  Router.register r ~node_id:3 (fun _ -> at := Engine.now engine);
  let p = { (pkt 1) with Packet.dst_node = 3 } in
  Router.send r p;
  Engine.run_until_idle engine;
  checki "crossed the dead link" 1 (link_xmits r ~from_node:0 ~to_node:1);
  checki "dead crossing counted" 1
    (Udma_obs.Metrics.get (Engine.metrics engine) "net.link.dead_crossings");
  let occ = (Packet.size_bytes p + 3) / 4 in
  checkb "recovery path is slow" true
    (!at >= Router.dead_crossing_factor * occ)

(* A slowed link stretches the crossing packet's own tail and the
   queueing of the packet behind it. *)
let test_slow_link_stretches_occupancy () =
  let arrival fault =
    let engine = Engine.create () in
    let r =
      Router.create ~engine ~nodes:4
        ~config:{ Router.default_config with Router.link_contention = true }
        ()
    in
    Router.set_link_fault r ~from_node:0 ~to_node:1 fault;
    let last = ref 0 in
    Router.register r ~node_id:1 (fun _ -> last := Engine.now engine);
    Router.send r { (pkt ~len:1000 0) with Packet.dst_node = 1 };
    Router.send r { (pkt ~len:1000 1) with Packet.dst_node = 1 };
    Engine.run_until_idle engine;
    (!last, List.fold_left
              (fun a (l : Router.link_stat) -> a + l.Router.wait_cycles)
              0 (Router.link_stats r))
  in
  let healthy, _ = arrival Router.Link_ok in
  let slowed, waited = arrival (Router.Link_slow 4) in
  (* 251 words: each slow crossing holds the wire 4x251 cycles *)
  checkb "both packets delayed" true (slowed >= healthy + 2 * 3 * 251);
  checkb "second packet queued longer" true (waited > 0)

(* Adaptive reacts to busy state: with the X link 0->1 already claimed
   by an earlier packet, a 0->3 packet turns south first. *)
let test_adaptive_prefers_less_busy_link () =
  let engine, r = adaptive_router () in
  Router.register r ~node_id:1 (fun _ -> ());
  Router.register r ~node_id:3 (fun _ -> ());
  Router.send r { (pkt ~len:1000 0) with Packet.dst_node = 1 };
  Router.send r { (pkt ~len:1000 1) with Packet.dst_node = 3 };
  Engine.run_until_idle engine;
  checki "took the idle Y link first" 1 (link_xmits r ~from_node:0 ~to_node:2);
  checki "adaptive turn counted" 1
    (Udma_obs.Metrics.get (Engine.metrics engine) "net.router.adaptive_turns")

let test_set_link_fault_validates () =
  let engine = Engine.create () in
  let r = Router.create ~engine ~nodes:9 () in
  checkb "non-adjacent raises" true
    (try Router.set_link_fault r ~from_node:0 ~to_node:8 Router.Link_dead; false
     with Invalid_argument _ -> true);
  checkb "bad slow factor raises" true
    (try Router.set_link_fault r ~from_node:0 ~to_node:1 (Router.Link_slow 0);
         false
     with Invalid_argument _ -> true);
  checki "unset fault reads Link_ok" 0
    (match Router.link_fault r ~from_node:0 ~to_node:1 with
    | Router.Link_ok -> 0
    | _ -> 1)

(* ---------- Flit-level crossing (wormhole testbench) ----------

   Hand-computed flit-by-flit schedules on a 2x2 mesh with unit
   timing: base_cycles = 2 (a worm's flits become ready two cycles
   after send), per_hop_cycles = 1 (a granted flit is usable
   downstream the next cycle), per_word_cycles = 1 with flit_words = 1
   (a flit holds its wire for one cycle, and every 32-bit word is its
   own flit, so a len-byte packet is (len + 16 + 3) / 4 flits). *)

let flit_router ?(vc_count = 1) ?rx_credits nodes =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          crossing = `Flit;
          base_cycles = 2;
          per_hop_cycles = 1;
          per_word_cycles = 1;
          flit_words = 1;
          vc_count;
          rx_credits }
      ()
  in
  (engine, r)

let flit_stat r ~from_node ~to_node ~vc =
  match
    List.find_opt
      (fun (s : Router.flit_stat) ->
        s.Router.fl_from = from_node && s.Router.fl_to = to_node
        && s.Router.fl_vc = vc)
      (Router.flit_stats r)
  with
  | Some s -> s
  | None ->
      Alcotest.fail
        (Printf.sprintf "no flit FIFO (%d,%d) vc%d" from_node to_node vc)

(* One 5-flit worm 0 -> 3 (dimension order: (0,1) then (1,3)) on an
   idle mesh pipelines one flit per cycle. Hand schedule: all flits
   ready at t = 2; flit k crosses (0,1) at t = 2 + k, crosses (1,3)
   at t = 3 + k and ejects at node 3 at t = 4 + k; the tail (k = 4)
   completes the packet at exactly t = 8 = base + hops + 4. *)
let test_flit_pipelined_schedule () =
  let engine, r = flit_router 4 in
  let arrival = ref (-1) in
  Router.register r ~node_id:3 (fun _ -> arrival := Engine.now engine);
  Router.send r { (pkt ~len:4 0) with Packet.dst_node = 3 };
  let injected, _, _ = Router.flit_counts r in
  checki "20 bytes = 5 one-word flits" 5 injected;
  (* end of cycle 4: the head just ejected; flits 1 and 2 sit in the
     two link FIFOs, 3 and 4 are still queued at the source *)
  Engine.run_until engine 4;
  let injected, delivered, buffered = Router.flit_counts r in
  checki "head ejected at t=4" 1 delivered;
  checki "rest still in network" 4 buffered;
  checki "nothing re-injected" 5 injected;
  checkb "conservation holds mid-flight" true (Router.check_flits r = None);
  Engine.run_until_idle engine;
  checki "tail completes at base + hops + 4 trailing flits" 8 !arrival;
  let _, delivered, buffered = Router.flit_counts r in
  checki "all five flits ejected" 5 delivered;
  checki "network drained" 0 buffered;
  (* both wires carried the whole worm; the source wire double-buffers
     (a fresh flit lands each cycle as the previous one leaves for
     (1,3) in the same tick), the last wire drains eject-then-fill *)
  checki "grants on (0,1)" 5
    (flit_stat r ~from_node:0 ~to_node:1 ~vc:0).Router.fl_grants;
  checki "grants on (1,3)" 5
    (flit_stat r ~from_node:1 ~to_node:3 ~vc:0).Router.fl_grants;
  checki "peak occupancy on (0,1)" 2
    (flit_stat r ~from_node:0 ~to_node:1 ~vc:0).Router.fl_max_occ;
  checki "peak occupancy on (1,3)" 1
    (flit_stat r ~from_node:1 ~to_node:3 ~vc:0).Router.fl_max_occ;
  checkb "conservation holds when drained" true (Router.check_flits r = None)

(* Two worms sharing wire (1,3) interleave flit by flit on separate
   virtual channels. Worm A (0 -> 3) and worm B (1 -> 3), 4 flits
   each (len = 0), both sent at t = 0. B's head takes (1,3) on VC 0
   at t = 2 while A's head is still crossing (0,1); A's head then
   claims VC 1 and the wire's round-robin arbiter alternates
   B,A,B,A,... every cycle from t = 3 to t = 9. B's tail ejects at
   t = 9, A's one cycle later — neither worm waits for the other's
   tail, which a single channel would force. *)
let test_flit_vc_interleaving () =
  let engine, r = flit_router ~vc_count:2 4 in
  let arrivals = ref [] in
  Router.register r ~node_id:3 (fun p ->
      arrivals := (p.Packet.src_node, Engine.now engine) :: !arrivals);
  Router.send r { (pkt ~len:0 0) with Packet.dst_node = 3 };
  Router.send r { (pkt ~len:0 1) with Packet.src_node = 1; dst_node = 3 };
  Engine.run_until_idle engine;
  checki "B (1 -> 3) tail at t=9" 9 (List.assoc 1 !arrivals);
  checki "A (0 -> 3) tail at t=10" 10 (List.assoc 0 !arrivals);
  (* each worm rode its own virtual channel of the shared wire *)
  checki "B's four flits on VC 0" 4
    (flit_stat r ~from_node:1 ~to_node:3 ~vc:0).Router.fl_grants;
  checki "A's four flits on VC 1" 4
    (flit_stat r ~from_node:1 ~to_node:3 ~vc:1).Router.fl_grants;
  let injected, delivered, buffered = Router.flit_counts r in
  checki "8 flits injected" 8 injected;
  checki "8 flits delivered" 8 delivered;
  checki "none left behind" 0 buffered;
  checkb "conservation" true (Router.check_flits r = None)

(* A slow wire stretches a worm across two links. With Link_slow 4 on
   (1,3) and single-slot FIFOs, a 4-flit worm crosses (1,3) only
   every 4th cycle (t = 3, 7, 11, 15) while upstream flits sit
   credit-blocked in (0,1)'s slot — the worm holds buffers on both
   links at once, wormhole's defining hazard. Tail eject at t = 16
   returns every credit. *)
let test_flit_blocked_worm_credit_release () =
  let engine, r = flit_router ~rx_credits:1 4 in
  Router.set_link_fault r ~from_node:1 ~to_node:3 (Router.Link_slow 4);
  let arrival = ref (-1) in
  Router.register r ~node_id:3 (fun _ -> arrival := Engine.now engine);
  Router.send r { (pkt ~len:0 0) with Packet.dst_node = 3 };
  (* end of cycle 9: head (t=4) and first body (t=8) have ejected;
     the second body is parked in (0,1)'s only slot waiting for the
     slow wire, pinning its credit, so the tail cannot leave the
     source even though the (0,1) wire itself is idle *)
  Engine.run_until engine 9;
  let s01 = flit_stat r ~from_node:0 ~to_node:1 ~vc:0 in
  checki "slot on (0,1) occupied" 1 s01.Router.fl_occ;
  checki "its credit is pinned" 0 s01.Router.fl_credits;
  let injected, delivered, buffered = Router.flit_counts r in
  checki "two flits through" 2 delivered;
  checki "two still inside" 2 buffered;
  checki "injected" 4 injected;
  checkb "conservation under backpressure" true (Router.check_flits r = None);
  checkb "credit stall with the (0,1) wire idle counts as HOL" true
    (s01.Router.fl_hol_cycles > 0);
  Engine.run_until_idle engine;
  checki "tail ejects at t=16 (one (1,3) crossing per 4 cycles)" 16 !arrival;
  (* the tail's passage released every slot on both links *)
  List.iter
    (fun (s : Router.flit_stat) ->
      checki "drained FIFO empty" 0 s.Router.fl_occ;
      checki "credits restored" s.Router.fl_capacity s.Router.fl_credits)
    (Router.flit_stats r);
  let s13 = flit_stat r ~from_node:1 ~to_node:3 ~vc:0 in
  checkb "the slow wire stalled ready flits without HOL" true
    (s13.Router.fl_stall_cycles > 0 && s13.Router.fl_hol_cycles = 0);
  checkb "conservation when drained" true (Router.check_flits r = None)

(* The flit model pinned as data. Six regimes jointly cover 4/9/16
   nodes, 1-4 VCs, credits 1/2/3/4/8/unlimited, per_hop 0/1/2/8,
   per_word 0/1/2 and flit_words 1/2/4/1024, each with one slow and
   one dead wire, under 12 traffic seeds. Each run is reduced to one
   MD5 over everything the crossing computes — the delivery log, the
   per-FIFO and per-link stats, the per-VC occupancy profile, the
   metrics registry without the engine's [engine.*] counters and the
   final clock — so any change to the tick schedule, arbitration order
   or accounting moves a digest. The engine's event counters are
   pinned apart: they count how the flit clock reaches its cycles, not
   what the crossing computes. F1 is probed at random mid-run
   points. *)
let flit_regimes =
  (* nodes, vcs, credits, per_hop, per_word, flit_words *)
  [ (4, 1, Some 1, 0, 1, 1); (9, 2, Some 2, 1, 2, 2); (16, 3, Some 3, 2, 0, 4);
    (16, 4, Some 4, 8, 1, 1024); (9, 4, Some 8, 0, 2, 1);
    (16, 2, None, 1, 1, 2) ]

(* The flit counters and occupancy histogram as any registry reader
   sees them: every [net.flit.*]/[net.link.*] counter (a present 0
   included) and [net.flit.occupancy]. *)
let flit_registry_snapshot buf em =
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"net.flit." name
         || String.starts_with ~prefix:"net.link." name
      then Printf.bprintf buf "c %s %d\n" name v)
    (Udma_obs.Metrics.counters em);
  match Udma_obs.Metrics.histogram em "net.flit.occupancy" with
  | Some h ->
      Printf.bprintf buf "h %d %d %d" h.Udma_obs.Metrics.count h.sum h.overflow;
      List.iter (fun (e, c) -> Printf.bprintf buf " %d:%d" e c) h.buckets;
      Buffer.add_char buf '\n'
  | None -> Buffer.add_string buf "h -\n"

(* One regime run: the digest of everything the crossing computes, the
   digest of the registry snapshots taken at every probe and at the
   end, and the digest of the engine's event counters. *)
let flit_regime_run (nodes, vcs, credits, per_hop, per_word, flit_words)
    seed =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          crossing = `Flit;
          base_cycles = 3;
          per_hop_cycles = per_hop;
          per_word_cycles = per_word;
          flit_words;
          vc_count = vcs;
          rx_credits = credits }
      ()
  in
  Router.set_link_fault r ~from_node:0 ~to_node:1 (Router.Link_slow 3);
  Router.set_link_fault r ~from_node:(nodes - 1) ~to_node:(nodes - 2)
    Router.Link_dead;
  let log = Buffer.create 4096 in
  for d = 0 to nodes - 1 do
    Router.register r ~node_id:d (fun p ->
        Printf.bprintf log "d %d %d %d %d\n" p.Packet.seq p.Packet.src_node
          p.Packet.dst_node (Engine.now engine))
  done;
  let rng = Rng.create ((seed * 7919) + nodes) in
  let f1 = ref None and reads = Buffer.create 4096 in
  let probe _ =
    if !f1 = None then f1 := Router.check_flits r;
    flit_registry_snapshot reads (Engine.metrics engine)
  in
  for i = 1 to 24 do
    let src = Rng.int rng nodes in
    let dst = (src + 1 + Rng.int rng (nodes - 1)) mod nodes in
    let size = 4 * (1 + Rng.int rng 100) in
    Engine.schedule_at engine ~time:(Rng.int rng 1_500) (fun _ ->
        Router.send r
          { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
            payload = Bytes.make size 'x'; seq = i });
    Engine.schedule_at engine ~time:(Rng.int rng 6_000) probe
  done;
  Engine.run_until_idle engine;
  probe ();
  (match !f1 with
  | Some why -> Alcotest.failf "F1 violated (seed %d): %s" seed why
  | None -> ());
  List.iter
    (fun (s : Router.flit_stat) ->
      Printf.bprintf log "f %d %d %d %d %d %d %d %d %d %d\n" s.Router.fl_from
        s.Router.fl_to s.Router.fl_vc s.Router.fl_capacity s.Router.fl_occ
        s.Router.fl_credits s.Router.fl_max_occ s.Router.fl_grants
        s.Router.fl_stall_cycles s.Router.fl_hol_cycles)
    (Router.flit_stats r);
  List.iter
    (fun (s : Router.link_stat) ->
      Printf.bprintf log "l %d %d %d %d %d %d\n" s.Router.from_node
        s.Router.to_node s.Router.xmits s.Router.busy_cycles
        s.Router.wait_cycles s.Router.max_depth)
    (Router.link_stats r);
  Array.iter
    (fun (mean, mx) -> Printf.bprintf log "o %h %d\n" mean mx)
    (Router.flit_vc_occupancy r);
  let is_engine (name, _) = String.starts_with ~prefix:"engine." name in
  let registry =
    match Udma_obs.Metrics.to_json (Engine.metrics engine) with
    | Udma_obs.Json.Obj fields ->
        Udma_obs.Json.Obj
          (List.map
             (function
               | "counters", Udma_obs.Json.Obj cs ->
                   ("counters", Udma_obs.Json.Obj (List.filter (Fun.negate is_engine) cs))
               | field -> field)
             fields)
    | j -> j
  in
  Buffer.add_string log (Udma_obs.Json.to_string registry);
  Printf.bprintf log "\nt %d\n" (Engine.now engine);
  let events = Buffer.create 64 in
  List.iter
    (fun (name, v) -> Printf.bprintf events "%s %d\n" name v)
    (List.filter is_engine (Udma_obs.Metrics.counters (Engine.metrics engine)));
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (digest log, digest reads, digest events)

(* Recorded with one injection-FIFO entry per flit and one engine
   event per active flit-cycle, the layout and clock the crossing had
   before it queued worms and stepped in place; regime-major, seeds
   1..12. *)
let flit_regime_expected =
  [| "434b94b0c59048d5aafe04b95957bf5d"; "6c4e6fe0b6c174621a660136eb25c173";
     "bdcfaaf78cd67ce9bca8adbe553dd901"; "0d28504f5d3d7d0b36b1ef8a1153aec6";
     "60bf39e0117ffb360543502d90ea26f6"; "8946f4844a1a515508b2314494800084";
     "bdc26c549352dc52f428b9cb81706adb"; "b919fbf5a5b2f10464b259453678c82d";
     "2a18852a964075083261e99e986ab88a"; "6f0c1ff09ee85956bf85216f96f91c70";
     "2e07afc20dd08c8378d326ec9fdaa36e"; "152c76637c5e4888b0e4e957ecbc48fe";
     "e7bd0661f200a69950db3fa862ed685c"; "b23de4a830c0a120f2028841b6f8ea98";
     "fea23045e94d1f4ffa27be3444cf0fa9"; "1584020bba270fb8ee09c446a466aa39";
     "b3d821630358ac0edf7e88ab4ad7c0b9"; "a97d7ec4b742973c9badd0acd4f0a469";
     "f5e5c98201f23dd43f875cb251176d0e"; "8e940d9784f23dd80533be0674362842";
     "6e2648e3eecf85c53112d6d1c5307414"; "2f445a668b7033d34eac554cc0e0e0a1";
     "f886e83876d9d5cd702a49a222c1d4fb"; "fed06455abd682da8bf0da6ed16c434d";
     "0147095a7cced106d7c62daadd647e79"; "fd14512e3438b01aa27c5ca6679b199c";
     "495fb3c14c8a8b5c7ebc609049506f5b"; "7ce57d268dfe018f47b2b20c337d3306";
     "2c5d21af89a878bff6031f12b859ee9f"; "bd0ad37d5ba4ea763ca4145b32c22686";
     "9dd31e6270d962da276cb3fc9f159b0c"; "5690ba09aff2191298a4f8ce76b7d09a";
     "6c8d8006b4fb76d51551831577d459f3"; "7560016ae2de8be388a0b760fff3da61";
     "a67d279773a25bf71673c7d7ea8eea24"; "023cb1e33737f18a9bd61a48a54af200";
     "c64b12be90d606915bee60de5fc51311"; "6affabe68aa186f0ae7dff966cd188ce";
     "4233766c570f4b168fff0506a74c06ef"; "8b803d2dbbfc4b9d82c00b892b06b978";
     "1587815eeb737c202b92e89dbde0c397"; "2220baae98429977e662c786e5f21fde";
     "994771a74d58d8293dfbee7c6d3dd178"; "5700cc381980f100f3d8fefaab612f51";
     "2e4b9298f27418ca89f5cbde8cb9f043"; "2d77a802e85ec559ebfe358ae8b5dd48";
     "178f0ceba520e33b6c14b874615fa773"; "7a568945efe0bfa152739ba953429c42";
     "bbdd06f412b58400dad696086dbf0687"; "ee55206195ee3763f7d214a2c78dd979";
     "9c2cbe5a43b4cb41c97cb2270dbda9c0"; "ca29f4250389e18df6cdbd139be6ee27";
     "498f78901ff23568fb01e27599b6be9b"; "fb99744d0c24025cf9df0aff77acf27c";
     "905f23594a9de8d027b3b0d463a77691"; "f4af5ec67fc79bbb005e802af4054a48";
     "117463abe01aa8d544a460f194f13509"; "b59948f96556d569ed71a96352386cc1";
     "9bf44fd379e9a25c0041a7ee13b8016d"; "9dc1f30b8318b0d109078e73c499e426";
     "d56d0f91447048442bd4c1e44845c411"; "03ab0c978c9b65101b07d9ae528f8f9e";
     "9bfecee0bb50315b019ca7b8349679f6"; "4aedbea13f651ea89ea3c1b1737a6d56";
     "cc30b18ae43af34531857178ca5af9de"; "744927dd24fbda25feb253655cb39179";
     "9793d5134274fcac6e6f023086c9a6bc"; "072b3a77aec6a75506ce2a09149b309d";
     "3a6d5f79d9b4133f69a0d4b79c65267e"; "f7e8a38a49b307e747866c4c0ea64e91";
     "9c596205c1a22ef7e8fd5ec97fa0b3da"; "4eaf39115ec225fd2261f7f639a0dee1" |]

let flit_regime_runs =
  lazy
    (Array.of_list
       (List.concat_map
          (fun regime -> List.init 12 (fun s -> flit_regime_run regime (s + 1)))
          flit_regimes))

let check_regime_digests ?(distinct = true) what expected pick =
  let got = Array.map pick (Lazy.force flit_regime_runs) in
  Array.iteri
    (fun i d ->
      if expected.(i) <> d then
        Alcotest.failf "regime %d seed %d: %s digest %s moved" (i / 12)
          ((i mod 12) + 1) what d)
    got;
  if distinct then
    checki ("72 distinct " ^ what ^ " digests") 72
      (List.length (List.sort_uniq compare (Array.to_list got)))

let test_flit_regimes_pinned () =
  check_regime_digests "regime" flit_regime_expected (fun (c, _, _) -> c)

(* The engine's [engine.scheduled] and [engine.events_fired] at the end
   of each regime run. Two runs may share counts, so these need not be
   distinct. *)
let flit_events_expected =
  [| "3ea890b7fa17ab3081b72ce732abae77"; "6bb1b228f32fa3a96af56f3a76479d89";
     "f3771c73f2a46ff5eb0f0894f4f21fda"; "3ea890b7fa17ab3081b72ce732abae77";
     "20d5da67f2db3c7d7fdb7970d84aa039"; "a112562b137d99d027e3ebf530212421";
     "831785a16b09b015415d43c6897e71f3"; "3437bc93af8f9a8aea106f8869a8a5ad";
     "831785a16b09b015415d43c6897e71f3"; "a112562b137d99d027e3ebf530212421";
     "e53c6a56365cfbaf8495a46a4899b184"; "6bb1b228f32fa3a96af56f3a76479d89";
     "3ea890b7fa17ab3081b72ce732abae77"; "bec9a821fd6c22832c4ebb149708994c";
     "3437bc93af8f9a8aea106f8869a8a5ad"; "a00f6562188375ad7ca1e2adf9ad4bed";
     "a112562b137d99d027e3ebf530212421"; "3437bc93af8f9a8aea106f8869a8a5ad";
     "e53c6a56365cfbaf8495a46a4899b184"; "32e90fc202d7b2d4f8dffd5cb8de4ab7";
     "7e2bacb77086203e9d396d2a5bb166f1"; "e53c6a56365cfbaf8495a46a4899b184";
     "32e90fc202d7b2d4f8dffd5cb8de4ab7"; "3437bc93af8f9a8aea106f8869a8a5ad";
     "a4e80c24f46366f97f6a6a2e05353eb8"; "27313159ad2c890c433c684934182537";
     "7a53bdc427c55e60e72459a39d3ad5aa"; "7a53bdc427c55e60e72459a39d3ad5aa";
     "27313159ad2c890c433c684934182537"; "7a53bdc427c55e60e72459a39d3ad5aa";
     "3ada2a75461e30f0283dbb5bb8d822b6"; "c79c8bbcc0c50f291f9ff27e62e563bf";
     "7fec5b3d156fe084c3d8700ff10904a1"; "83dc72d929832d092d9661bd2fbee5e5";
     "a4e80c24f46366f97f6a6a2e05353eb8"; "a4e80c24f46366f97f6a6a2e05353eb8";
     "616e1254bb3af224f6e1325fcd0ddba3"; "3239035260bba29b1b1decbc487092ec";
     "618e04397c66f7b075d89db731f00fdb"; "618e04397c66f7b075d89db731f00fdb";
     "3239035260bba29b1b1decbc487092ec"; "a24d4edb2d224fad7aea5269bd585d7c";
     "35460750638417848e811329fbcc6849"; "4360117b70d331ab338baf378d3a7edc";
     "3239035260bba29b1b1decbc487092ec"; "618e04397c66f7b075d89db731f00fdb";
     "434c0e39bf9e25d5b7c5736d58445f6b"; "c5b174d6a4e535d5a7ff89add069901f";
     "bec9a821fd6c22832c4ebb149708994c"; "bec9a821fd6c22832c4ebb149708994c";
     "e53c6a56365cfbaf8495a46a4899b184"; "6bb1b228f32fa3a96af56f3a76479d89";
     "bec9a821fd6c22832c4ebb149708994c"; "20d5da67f2db3c7d7fdb7970d84aa039";
     "e53c6a56365cfbaf8495a46a4899b184"; "25f02cea57158db9545a01d2565c5f74";
     "32e90fc202d7b2d4f8dffd5cb8de4ab7"; "a00f6562188375ad7ca1e2adf9ad4bed";
     "1a6bf862822cb7f70f6719b6361c6ace"; "002bebe65390fcc408d645c1eccd9a5a";
     "7ea6bc13ce218133bbade00160ed1ae6"; "12fbdc919218b17ed35d7907814cbb32";
     "ab2d7bde9128bd8a862b5335b3b73218"; "7e2bacb77086203e9d396d2a5bb166f1";
     "a112562b137d99d027e3ebf530212421"; "4360117b70d331ab338baf378d3a7edc";
     "c5b174d6a4e535d5a7ff89add069901f"; "f3771c73f2a46ff5eb0f0894f4f21fda";
     "1b79bc43e718f8c1c4cedde67da824ae"; "35460750638417848e811329fbcc6849";
     "ac002d974825cf8d8fcd4bd538f92919"; "f3771c73f2a46ff5eb0f0894f4f21fda" |]

let test_flit_regime_events_pinned () =
  check_regime_digests ~distinct:false "event counter" flit_events_expected (fun (_, _, e) -> e)

(* The registry as read mid-run and at the end, pinned separately so a
   change to how the crossing publishes its counters (not just what it
   computes) must keep every name and value every reader sees. Covers
   per_word_cycles = 0 (net.link.busy_cycles present at 0) and
   unlimited credits. Recorded before the counters moved to fields. *)
let flit_registry_expected =
  [| "6e1920ad55b99438431f615e9e4a7a4c"; "0b7cdd7ffc8ed65f10ae1ec3e30233f5";
     "047202dc2358b3e6436728fa6855d7bf"; "b185f8554ff440d440682c4808801f0c";
     "78f73c668d0152acab435c2c521f7030"; "510bcc5ca64e89e6421c4f290d7539f1";
     "424a95e822f958798e0c7d06f82d44ab"; "95ffa7bb06e5717c7af4d553f841bd9e";
     "56c33b774960cd4c5514e831af2b754f"; "5d7eea434c1ef9160a24edd36be1c227";
     "ead566720c015af50e0e2a420d8ae638"; "a74b751edcafd242d887ad7974ea6e02";
     "7e5424f2330e4a72a03bded65f10b863"; "7d40be983c75704b6f337229cd23c7c6";
     "c83ec7093265e34f5db1093eb90d4780"; "277add603f5332f3a317ca95cb182ebd";
     "4d8c16dff2f07ce2c00ff8142ea99540"; "43a1fdc4e3c81af089c5300ccb45af64";
     "2e287e047c2d632df4fb981a6293a4ec"; "aab35d9e2917d59847541e6b08a20f9d";
     "63824bde7fd4e218606468f8ca4b4eb0"; "1721066ddb5823d777280bdef328fdda";
     "8e57a2d86b17033fd559345ccc590677"; "d67b0de3465428f250e73400d5285719";
     "d72a6b9b8da8affbb33a7afcb7b50222"; "078363a09b0f6f90ccfedcedb616e1f0";
     "0d70e634c203aeb41487179445f7d5c1"; "13ad499cdbbe3a07fc775089a0440918";
     "5a1c158f280dfe956cc24ee750f328dd"; "09162a64d03696c9eb08915856c36832";
     "6b665e03bb1d587b24c5651c9f6a9b43"; "00fff0dd8f81f88d20db66fe0d589d13";
     "2baffb970316ec8ad1f67dd2d5b6f85d"; "96f971f786ce32984b86ad06f339435d";
     "4db11f225a884948f8cca9a0a9738828"; "5c1afa1ba728cf76b43e906af2a38db6";
     "40af74b5e255db03d39ff62b934c7350"; "49853775f7d6fa657eea955f29a3648f";
     "f3724ad1bf929e544fd64c74ad8a25b7"; "5b62ae4fed637ff77596b0cd55569eb3";
     "078d8a7d533108153bd89ad2f7141889"; "d707668a5db38f7e5bf67dadfc02d47e";
     "1f533f6e8647e27e9192612e6f869510"; "ccd6036ae73239bcaa7de9b584e8c347";
     "cebafcbd4014c493367cbb35025ce381"; "3363ab99f7ba535a45c6b9a3a9bf6cba";
     "46fe839e1ed1034648ab82a90cdefd2f"; "a6e7837d18fd5a73439bc0cf0ab9286a";
     "5fefa681d0d349c19f48a5e7662eefa0"; "bd27c3b33244febb681444cf908869a1";
     "32278f24a970d4681408b40dca268b7f"; "f87d8543d75071bde45c2794024fc53e";
     "b4c818f04af999cc9a08b1d8127bb61c"; "38270e875be3d1f223464cb9bc41af86";
     "26142808febc0ee9ea4e062ed5bb3d1d"; "e373b2721e4dceb9e9fa4bfd1b1d7aec";
     "3173e065c1820c3e08b2b1c731249424"; "f72429972615205b8562558f38f12394";
     "98d587bdd92f3b1fd77a338dcb82ec79"; "1739e7e8ee70d4e9aba95ea00aabaf24";
     "23fc842dac194bb17ea03a5a7e0fbdb7"; "d17e719cb00ec6f1be95fc0beeded0e1";
     "b974114956fb2870999fd57d44a94aa6"; "8d453dce6d48770689794b946f55e520";
     "5b4b881e65f2be348d2570a0dbb7fe70"; "a8dcaf20b5946205742473f42fceec4c";
     "e94a206a2642e7a9902fdfa41e4dffc2"; "40524de64265e7d7b975bf9f606334a5";
     "023db5e944b447bb9018fa60618c24c8"; "e122b59aaf0355b33764b81a43a3731b";
     "a344e7c9d74194489a4bded9f5db2f92"; "4369ac9507ef7e1e1b1d2b5ce95cac91" |]

let test_flit_registry_pinned () =
  check_regime_digests "registry" flit_registry_expected (fun (_, r, _) -> r)

(* Scenarios whose streams of back-to-back flits get cut mid-way, each
   reduced to one MD5 over the delivery log, a snapshot at every probe
   cycle (F1, every [net.flit.*]/[net.link.*] registry name, the flit
   and link stats, the flit counts and the occupancy profile) and the
   final clock, recorded before links slept (every grant was an
   arbitration then, as it is now); sleeping links must leave every
   byte alone:
   - a competing head: worms from node 1 arrive at staggered cycles on
     the wire a 0 -> 3 worm is streaming over;
   - credits running out: 1 and 2 slots behind a slow downstream wire;
   - faults set by events mid-worm: Link_slow, then Link_dead, then
     Link_ok again;
   - a 40-flit worm read at every cycle of its crossing;
   - per_hop_cycles 0 and 1. *)
type split_step =
  | Split_send of int * int * int * int  (* time, src, dst, payload bytes *)
  | Split_fault of int * int * int * Router.fault  (* time, from, to, fault *)

let flit_split_run ~nodes ~vcs ~credits ~per_hop ~per_word ~steps ~probe_until =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          crossing = `Flit;
          base_cycles = 3;
          per_hop_cycles = per_hop;
          per_word_cycles = per_word;
          flit_words = 1;
          vc_count = vcs;
          rx_credits = credits }
      ()
  in
  let log = Buffer.create 4096 in
  for d = 0 to nodes - 1 do
    Router.register r ~node_id:d (fun p ->
        Printf.bprintf log "d %d %d %d %d\n" p.Packet.seq p.Packet.src_node
          p.Packet.dst_node (Engine.now engine))
  done;
  let snapshot () =
    Printf.bprintf log "t %d f1 %s\n" (Engine.now engine)
      (Option.value (Router.check_flits r) ~default:"ok");
    flit_registry_snapshot log (Engine.metrics engine);
    List.iter
      (fun (s : Router.flit_stat) ->
        Printf.bprintf log "f %d %d %d %d %d %d %d %d %d\n" s.Router.fl_from
          s.Router.fl_to s.Router.fl_vc s.Router.fl_occ s.Router.fl_credits
          s.Router.fl_max_occ s.Router.fl_grants s.Router.fl_stall_cycles
          s.Router.fl_hol_cycles)
      (Router.flit_stats r);
    List.iter
      (fun (s : Router.link_stat) ->
        Printf.bprintf log "l %d %d %d %d %d\n" s.Router.from_node s.Router.to_node
          s.Router.xmits s.Router.busy_cycles s.Router.wait_cycles)
      (Router.link_stats r);
    let i, d, b = Router.flit_counts r in
    Printf.bprintf log "n %d %d %d\n" i d b;
    Array.iter
      (fun (mean, mx) -> Printf.bprintf log "o %h %d\n" mean mx)
      (Router.flit_vc_occupancy r)
  in
  List.iteri
    (fun seq step ->
      match step with
      | Split_send (time, src, dst, bytes) ->
          Engine.schedule_at engine ~time (fun _ ->
              Router.send r
                { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
                  payload = Bytes.make bytes 'x'; seq })
      | Split_fault (time, from_node, to_node, fault) ->
          Engine.schedule_at engine ~time (fun _ ->
              Router.set_link_fault r ~from_node ~to_node fault))
    steps;
  for time = 0 to probe_until do
    Engine.schedule_at engine ~time (fun _ -> snapshot ())
  done;
  Engine.run_until_idle engine;
  snapshot ();
  Digest.to_hex (Digest.string (Buffer.contents log))

let flit_split_scenarios =
  let long = Split_send (0, 0, 3, 400) in
  [ ( "competing head mid-run",
      fun () ->
        flit_split_run ~nodes:4 ~vcs:2 ~credits:(Some 8) ~per_hop:8 ~per_word:2
          ~steps:(long :: List.init 6 (fun k -> Split_send (40 + (7 * k), 1, 3, 4 * k)))
          ~probe_until:400 );
    ( "competing head mid-run, one VC",
      fun () ->
        flit_split_run ~nodes:4 ~vcs:1 ~credits:(Some 4) ~per_hop:6 ~per_word:1
          ~steps:(long :: List.init 5 (fun k -> Split_send (33 + (5 * k), 1, 3, 8)))
          ~probe_until:400 );
    ( "credits run out mid-run (1 slot)",
      fun () ->
        flit_split_run ~nodes:4 ~vcs:1 ~credits:(Some 1) ~per_hop:8 ~per_word:1
          ~steps:[ Split_fault (0, 1, 3, Router.Link_slow 3); long ]
          ~probe_until:500 );
    ( "credits run out mid-run (2 slots)",
      fun () ->
        flit_split_run ~nodes:9 ~vcs:2 ~credits:(Some 2) ~per_hop:8 ~per_word:1
          ~steps:
            [ Split_fault (0, 1, 2, Router.Link_slow 2); Split_send (0, 0, 2, 300);
              Split_send (5, 3, 2, 200); Split_send (9, 0, 8, 160) ]
          ~probe_until:500 );
    ( "faults set mid-run",
      fun () ->
        flit_split_run ~nodes:4 ~vcs:2 ~credits:(Some 8) ~per_hop:8 ~per_word:2
          ~steps:
            [ long; Split_send (20, 0, 1, 200);
              Split_fault (51, 0, 1, Router.Link_slow 2);
              Split_fault (97, 1, 3, Router.Link_dead);
              Split_fault (173, 1, 3, Router.Link_ok);
              Split_fault (180, 0, 1, Router.Link_ok) ]
          ~probe_until:600 );
    ( "a 40-flit worm read at every cycle",
      fun () ->
        flit_split_run ~nodes:9 ~vcs:2 ~credits:(Some 8) ~per_hop:8 ~per_word:2
          ~steps:[ Split_send (0, 0, 8, 144) ] ~probe_until:200 );
    ( "per_hop 0",
      fun () ->
        flit_split_run ~nodes:9 ~vcs:2 ~credits:(Some 3) ~per_hop:0 ~per_word:2
          ~steps:
            (List.init 8 (fun k -> Split_send (3 * k, k, 8 - k, 40 + (16 * k))))
          ~probe_until:300 );
    ( "per_hop 1",
      fun () ->
        flit_split_run ~nodes:9 ~vcs:2 ~credits:(Some 3) ~per_hop:1 ~per_word:1
          ~steps:
            (List.init 8 (fun k -> Split_send (3 * k, k, 8 - k, 40 + (16 * k))))
          ~probe_until:300 ) ]

let flit_split_expected =
  [ "1fab80ea79355fd593d3fb439df7b461"; "56ded75899af8f31df82bcfd1e800f5b";
    "f51ed4b6025f02a720e1a59ccd715e43"; "b316563c725a9177416566ba27f686c5";
    "bea7bc2fef22f30e152549c71cd0ebef"; "ca0b8466ea425cf2d07177f1248a38f8";
    "6fe6215db823862b1823ac8e2ac26342"; "49e2ba87ff0c95e379ad6f5e6340101c" ]

let test_flit_split_runs_pinned () =
  List.iter2
    (fun (name, run) expected ->
      let got = run () in
      Printf.printf "%s %s\n" name got;
      if got <> expected then Alcotest.failf "%s: digest %s moved" name got)
    flit_split_scenarios flit_split_expected

(* The visit census: a 16-node mesh with the [mesh_flit] benchmark's
   wire (2 VCs, 8 credits, one-word flits, 2 cycles per word, the
   default 8-cycle hop) carries 120 worms of 2 KB, a quarter of them
   aimed at node 0, driven straight through [Flit]. The digests cannot
   tell a sleeping link that has stopped firing from one that works;
   these counts can. The grant count is what the crossing computes;
   every grant is an arbitration of its own. Visiting every link that
   some front waits on at every tick took 392,389 wire visits and
   138,042 ejection visits. A link whose front changes sleeps straight
   to the first cycle it could act at: an ejection link is visited only
   at a tick where it ejects, so its visits equal the flits delivered,
   and a wire that has just granted sleeps past the ticks its busy wire
   could only stall. *)
let test_flit_visit_census () =
  let module Flit = Udma_shrimp.Flit in
  let module Mesh = Udma_shrimp.Mesh in
  let engine = Engine.create () in
  let nodes = 16 in
  let m =
    Mesh.create ~engine ~nodes
      { Mesh.default_config with
        Mesh.link_contention = true;
        crossing = `Flit;
        per_word_cycles = 2;
        flit_words = 1;
        vc_count = 2;
        rx_credits = Some 8 }
  in
  let f = Flit.create m in
  let got = ref 0 in
  for d = 0 to nodes - 1 do
    m.Mesh.sinks.(d) <- Some (fun _ -> incr got)
  done;
  let rng = Rng.create 3 in
  let worms = 120 in
  for i = 1 to worms do
    let src = Rng.int rng nodes in
    let dst =
      if src <> 0 && Rng.int rng 4 = 0 then 0
      else (src + 1 + Rng.int rng (nodes - 1)) mod nodes
    in
    let p =
      { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
        payload = Bytes.make 2048 'x'; seq = i }
    in
    Engine.schedule_at engine ~time:(Rng.int rng 40_000) (fun _ -> Flit.send f p)
  done;
  Engine.run_until_idle engine;
  checki "every worm delivered" worms !got;
  let grants = Udma_obs.Metrics.get (Engine.metrics engine) "net.flit.grants" in
  let visits, eject_visits = Flit.census f in
  Printf.printf "flit census: %d grants, %d arbitration visits, %d eject visits\n" grants
    visits eject_visits;
  checki "grants" 171_828 grants;
  checki "arbitration visits" 185_526 visits;
  checki "eject visits" 61_920 eject_visits;
  checki "every eject visit ejects a flit"
    (Udma_obs.Metrics.get (Engine.metrics engine) "net.flit.delivered")
    eject_visits

(* Allocation guard on the flit clock: a fixed standalone-router run
   (16 nodes, 2 VCs, 4 credits, one-word flits, 150 packets of up to
   256 bytes) may allocate at most [flit_words_per_grant_max] minor
   words per flit grant. Packets and their send events are built
   before the measured window, which covers only the drain. *)
let flit_words_per_grant_max = 5.4

let test_flit_allocation_guard () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes:16
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          crossing = `Flit;
          base_cycles = 3;
          per_hop_cycles = 1;
          per_word_cycles = 1;
          flit_words = 1;
          vc_count = 2;
          rx_credits = Some 4 }
      ()
  in
  let got = ref 0 in
  for d = 0 to 15 do
    Router.register r ~node_id:d (fun _ -> incr got)
  done;
  let rng = Rng.create 7 in
  for i = 1 to 150 do
    let src = Rng.int rng 16 in
    let dst = (src + 1 + Rng.int rng 15) mod 16 in
    let p =
      { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
        payload = Bytes.make (4 * (1 + Rng.int rng 64)) 'x'; seq = i }
    in
    Engine.schedule_at engine ~time:(Rng.int rng 2_000) (fun _ -> Router.send r p)
  done;
  let w0 = Gc.minor_words () in
  Engine.run_until_idle engine;
  let words = Gc.minor_words () -. w0 in
  checki "every packet delivered" 150 !got;
  let grants = Udma_obs.Metrics.get (Engine.metrics engine) "net.flit.grants" in
  let per_grant = words /. float_of_int grants in
  Printf.printf "flit guard: %d grants, %.0f minor words, %.2f per grant\n" grants
    words per_grant;
  if per_grant > flit_words_per_grant_max then
    Alcotest.failf "%.2f minor words per flit grant > %.2f" per_grant
      flit_words_per_grant_max

(* Allocation guard on the analytic crossing: on a warm 4x4 mesh with
   4 VCs and 8 credits, sending a packet and draining its events
   allocates the same minor words over 1 hop (0 -> 1) as over 6
   (0 -> 15), so a hop allocates nothing: each claim schedules the
   bookkeeping events its (link, VC) built once. The per-packet figure
   is bounded at the measured value + 10 %. *)
let analytic_words_per_packet_max = 5.5

let test_analytic_allocation_guard () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes:16
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          vc_count = 4;
          rx_credits = Some 8 }
      ()
  in
  for d = 0 to 15 do
    Router.register r ~node_id:d (fun _ -> ())
  done;
  checki "a 6-hop route" 6 (Router.hops r ~src:0 ~dst:15);
  let packet dst =
    { Packet.src_node = 0; dst_node = dst; dst_paddr = 0;
      payload = Bytes.make 64 'x'; seq = 0 }
  in
  let near = packet 1 and far = packet 15 in
  let words_per_packet p n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      Router.send r p;
      Engine.run_until_idle engine
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  ignore (words_per_packet near 64 +. words_per_packet far 64);
  let one = words_per_packet near 1_000 and six = words_per_packet far 1_000 in
  Printf.printf "analytic guard: %.2f minor words per 1-hop packet, %.2f per 6-hop\n"
    one six;
  if six <> one then
    Alcotest.failf "%.2f minor words per 6-hop packet <> %.2f per 1-hop" six one;
  if one > analytic_words_per_packet_max then
    Alcotest.failf "%.2f minor words per packet > %.2f" one
      analytic_words_per_packet_max

(* A VC's depth counts its own claims only: when each packet is sent
   after the previous one has cleared the wire, round-robin hands the
   four VCs of the 0 -> 1 link four grants each, and each VC holds at
   most one outstanding claim. A tail clearing the wire must release
   the VC it was claimed on. *)
let test_analytic_vc_depth_own_claims () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes:4
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          vc_count = 4;
          rx_credits = Some 2 }
      ()
  in
  Router.register r ~node_id:1 (fun _ -> ());
  for s = 0 to 15 do
    Router.send r { (pkt ~len:64 s) with Packet.dst_node = 1 };
    Engine.run_until_idle engine
  done;
  let vcs =
    List.filter
      (fun (v : Router.vc_stat) -> v.Router.vc_from = 0 && v.Router.vc_to = 1)
      (Router.vc_stats r)
  in
  checki "VCs of the 0 -> 1 link" 4 (List.length vcs);
  List.iter
    (fun (v : Router.vc_stat) ->
      checki (Printf.sprintf "vc %d grants" v.Router.vc_index) 4 v.Router.vc_grants;
      checki (Printf.sprintf "vc %d max depth" v.Router.vc_index) 1
        v.Router.vc_max_depth)
    vcs

(* The analytic crossing's runtime counters pinned as data: credit
   tokens (held, in flight, free), VC and link depths, and what the
   engine reports about its own schedule, read where any caller can
   read them. 24 regimes cover 1, 2 and 4 VCs; unlimited, 1 and 8
   credits (and others through squeezes); dimension-order and adaptive
   routing; a slow wire in every run and a dead one in six; and a
   mid-run [set_rx_credits] squeeze (shrinking, growing, and from and
   to unlimited) in five. Each run reduces to one MD5 over reads taken
   from a probe event at every cycle (some probes carry a profiler
   category) and at top level between [run_until] and [run_before]
   steps, where further packets are sent: [credit_stats], [vc_stats],
   [link_stats], the [net.link.depth] and [net.vc.depth] histograms,
   N1, the profiler totals, the clock, [pending_events] and
   [next_event_time]; then the delivery log. All experiments read
   these counters at the end of a run only; these digests are what
   pins them mid-run. *)
type settled_regime = {
  sr_vcs : int;
  sr_credits : int option;
  sr_adaptive : bool;
  sr_dead : bool;
  sr_squeeze : int option list;  (* capacities set at cycles 500, 1000, ... *)
}

let settled_regimes =
  List.concat_map
    (fun sr_vcs ->
      List.concat_map
        (fun sr_credits ->
          List.map
            (fun sr_adaptive ->
              { sr_vcs; sr_credits; sr_adaptive; sr_dead = false; sr_squeeze = [] })
            [ false; true ])
        [ None; Some 1; Some 8 ])
    [ 1; 2; 4 ]
  @ [ { sr_vcs = 2; sr_credits = Some 8; sr_adaptive = false; sr_dead = true;
        sr_squeeze = [ Some 1; Some 8 ] };
      { sr_vcs = 4; sr_credits = Some 1; sr_adaptive = true; sr_dead = true;
        sr_squeeze = [ Some 4; Some 1 ] };
      { sr_vcs = 1; sr_credits = Some 8; sr_adaptive = true; sr_dead = true;
        sr_squeeze = [] };
      { sr_vcs = 4; sr_credits = None; sr_adaptive = false; sr_dead = true;
        sr_squeeze = [ Some 2; None ] };
      { sr_vcs = 2; sr_credits = Some 1; sr_adaptive = true; sr_dead = false;
        sr_squeeze = [ Some 6; Some 1 ] };
      { sr_vcs = 1; sr_credits = Some 2; sr_adaptive = false; sr_dead = true;
        sr_squeeze = [ Some 1; Some 5 ] } ]

let settled_run (i, rg) =
  let engine = Engine.create () in
  let nodes = 9 in
  let r =
    Router.create ~engine ~nodes
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          base_cycles = 3;
          per_hop_cycles = 2;
          per_word_cycles = 1;
          vc_count = rg.sr_vcs;
          rx_credits = rg.sr_credits;
          routing = (if rg.sr_adaptive then `Minimal_adaptive else `Dimension_order) }
      ()
  in
  Router.set_link_fault r ~from_node:0 ~to_node:1 (Router.Link_slow 3);
  if rg.sr_dead then Router.set_link_fault r ~from_node:8 ~to_node:7 Router.Link_dead;
  let log = Buffer.create 4096 and reads = Buffer.create (1 lsl 16) in
  for d = 0 to nodes - 1 do
    Router.register r ~node_id:d (fun p ->
        Printf.bprintf log "d %d %d %d %d\n" p.Packet.seq p.Packet.src_node
          p.Packet.dst_node (Engine.now engine))
  done;
  let em = Engine.metrics engine in
  (* one record of ints, in binary: printing them would dominate the
     test's run time *)
  let line tag ints =
    Buffer.add_char reads tag;
    List.iter (fun n -> Buffer.add_int64_le reads (Int64.of_int n)) ints;
    Buffer.add_char reads '\n'
  in
  let read tag =
    line tag
      [ Engine.now engine; Engine.pending_events engine; Engine.next_event_time engine ];
    Option.iter (Buffer.add_string reads) (Router.check_credits r);
    List.iter
      (fun (c : Router.credit_stat) ->
        line 'c'
          [ c.Router.cr_from; c.Router.cr_to; c.Router.cr_vc; c.Router.cr_capacity;
            c.Router.cr_held; c.Router.cr_inflight; c.Router.cr_free ])
      (Router.credit_stats r);
    List.iter
      (fun (v : Router.vc_stat) ->
        line 'v'
          [ v.Router.vc_from; v.Router.vc_to; v.Router.vc_index; v.Router.vc_grants;
            v.Router.vc_max_depth; v.Router.vc_max_skip ])
      (Router.vc_stats r);
    List.iter
      (fun (s : Router.link_stat) ->
        line 'l'
          [ s.Router.from_node; s.Router.to_node; s.Router.xmits; s.Router.busy_cycles;
            s.Router.wait_cycles; s.Router.max_depth ])
      (Router.link_stats r);
    List.iter
      (fun name ->
        match Udma_obs.Metrics.histogram em name with
        | Some h ->
            line 'h'
              (h.Udma_obs.Metrics.count :: h.sum :: h.overflow
              :: List.concat_map (fun (e, c) -> [ e; c ]) h.buckets)
        | None -> line 'h' [])
      [ "net.link.depth"; "net.vc.depth" ];
    line 'p' (List.map snd (Engine.Profiler.to_list (Engine.profile engine)))
  in
  let rng = Rng.create (1000 + i) in
  let packet seq =
    let src = Rng.int rng nodes in
    let dst = (src + 1 + Rng.int rng (nodes - 1)) mod nodes in
    { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
      payload = Bytes.make (4 * (1 + Rng.int rng 24)) 'x'; seq }
  in
  for seq = 1 to 40 do
    let p = packet seq in
    Engine.schedule_at engine ~time:(Rng.int rng 1_500) (fun _ -> Router.send r p)
  done;
  List.iteri
    (fun k credits ->
      Engine.schedule_at engine ~time:(500 * (k + 1)) (fun _ ->
          Router.set_rx_credits r credits))
    rg.sr_squeeze;
  let rec probe e =
    read 'e';
    let c = Engine.now e in
    if c < 2_500 then
      Engine.schedule e
        ?cat:(if c mod 7 = 3 then Some Engine.Profiler.Wire else None)
        ~delay:1 probe
  in
  Engine.schedule_at engine ~time:0 probe;
  let seq = ref 40 in
  while Engine.now engine < 3_000 do
    let t = Engine.now engine + 1 + Rng.int rng 60 in
    if Rng.bool rng then Engine.run_until engine t else Engine.run_before engine t;
    if Rng.int rng 3 = 0 then begin
      incr seq;
      Router.send r (packet !seq)
    end;
    read 't'
  done;
  Engine.run_until_idle engine;
  read 'i';
  Buffer.add_buffer log reads;
  Digest.to_hex (Digest.string (Buffer.contents log))

(* Recorded with the four per-hop bookkeeping events (credit reserve,
   wire start, credit release, wire clear) as engine events; regimes in
   [settled_regimes] order. *)
let settled_expected =
  [| "768f40577e2bcbfc2c268f3595e6b149"; "f8ca13c97364b26a623d4d3e3ea73090";
     "81bd3ef21053c74815d96cd774aa505c"; "af87e92325c277b32a26fc0fb9444d4a";
     "96e9af55b4cf07c7c53772d62bade480"; "fbcc04c8ceca1b64d7e25d24e6fcbdee";
     "7171ff3a417c9f508717cef6d8ccee1f"; "d90058280e452f58b368cec0e4f3022b";
     "6fa53f6a33a4617bd489fe8da008cc6c"; "ae203aaf7d38cce908455c83dbb7a01e";
     "58990eda3e8a1dc7743eeb1effd0d77b"; "00a32a64b4906fb34bd7c2f643bacb6f";
     "faba97c8537189b07c8c26d25b3b2a87"; "26e1c0a63ea630f2d4e1858ecc00d7c4";
     "975710ad663a3f76addba448faa658be"; "21887cf0caa6b7e941c81b0da03bbe50";
     "fd4a0619083b47621cb0ffe0a32c38e4"; "782cce281e01536e3d1d7248190b650b";
     "9dc3293ca49e6599d7fab07ce6f5df74"; "27749d519c755f8d987a24343b39c624";
     "ebf89eb9da395528ff66e0caaff5fd1a"; "fde338a01158a986cc7d120707cf4a5b";
     "7ab51d2821e6ef40b640b3fd804f61fe"; "06f7fe3b1baca2afb87ac649ca09b5da" |]

let test_analytic_settled_pinned () =
  let got = List.map settled_run (List.mapi (fun i rg -> (i, rg)) settled_regimes) in
  List.iteri
    (fun i d ->
      if settled_expected.(i) <> d then
        Alcotest.failf "regime %d: settled-counter digest %s moved" i d)
    got;
  checki "24 distinct settled-counter digests" 24
    (List.length (List.sort_uniq compare got))

(* The flit crossing's data layout under a hotspot with unlimited
   credits: 2,400 worms (a quarter aimed at node 0) through 16 nodes in
   20 k cycles. Every ring entry is a run of consecutive flits of one
   worm.
   At every probe F1 holds, every buffered flit belongs to a live worm,
   each ring's flit count is the sum of its entries' counts, and the
   in-network total equals the link rings' flits plus the flits each
   injection entry has left (all of its worm's remaining flits); each
   injection ring holds exactly one entry per worm queued there (live,
   its tail in no link ring); the rings toward the hotspot grow past
   their initial size;
   and the worm table never outgrows the smallest power of two
   covering the peak number of worms in flight, so worm ids are
   reused. *)
let test_flit_worm_table_and_rings () =
  let module Flit = Udma_shrimp.Flit in
  let module Mesh = Udma_shrimp.Mesh in
  let engine = Engine.create () in
  let nodes = 16 in
  let m =
    Mesh.create ~engine ~nodes
      { Mesh.default_config with
        Mesh.link_contention = true;
        crossing = `Flit;
        base_cycles = 3;
        per_hop_cycles = 1;
        per_word_cycles = 1;
        flit_words = 1;
        vc_count = 2;
        rx_credits = None }
  in
  let f = Flit.create m in
  let got = ref 0 in
  for d = 0 to nodes - 1 do
    m.Mesh.sinks.(d) <- Some (fun _ -> incr got)
  done;
  let live () = fst (Flit.worms f) in
  let peak = ref 0 and grown = ref false in
  let probe _ =
    (match Flit.check_flits f with
    | Some why -> Alcotest.failf "F1 at cycle %d: %s" (Engine.now engine) why
    | None -> ());
    let fifos = Flit.fifos f in
    let tails_out = Hashtbl.create 64 and in_links = ref 0 and at_sources = ref 0 in
    let held = Array.make nodes [] in
    List.iter
      (fun (fi : Flit.fifo) ->
        if fi.Flit.fi_slots > 4 then grown := true;
        let n = List.fold_left (fun acc (_, _, c) -> acc + c) 0 fi.Flit.fi_entries in
        if n <> fi.Flit.fi_len then
          Alcotest.failf "cycle %d: ring entries hold %d flits, its length says %d"
            (Engine.now engine) n fi.Flit.fi_len;
        List.iter
          (fun (w, first, count) ->
            match Flit.worm f w with
            | None -> Alcotest.failf "ring holds flit %d of dead worm %d" first w
            | Some (nf, _) ->
                if first + count > nf then
                  Alcotest.failf "ring holds flit %d of worm %d's %d" (first + count - 1) w nf;
                if fi.Flit.fi_node < 0 then begin
                  if first + count = nf then Hashtbl.replace tails_out w ()
                end
                else begin
                  if count <> nf - first then
                    Alcotest.failf
                      "cycle %d: an injection entry holds %d of its worm's %d flits left"
                      (Engine.now engine) count (nf - first);
                  held.(fi.Flit.fi_node) <- w :: held.(fi.Flit.fi_node)
                end)
          fi.Flit.fi_entries;
        if fi.Flit.fi_node < 0 then in_links := !in_links + n else at_sources := !at_sources + n)
      fifos;
    let _, _, buffered = Flit.flit_counts f in
    checki "in-network flits = link rings + flits left at injection entries"
      (!in_links + !at_sources) buffered;
    (* a worm is queued at its source while live with its tail in no
       link ring; its injection FIFO holds it as exactly one entry *)
    let queued = Array.make nodes [] in
    for w = 0 to snd (Flit.worms f) - 1 do
      match Flit.worm f w with
      | Some (_, src) when not (Hashtbl.mem tails_out w) -> queued.(src) <- w :: queued.(src)
      | Some _ | None -> ()
    done;
    Array.iteri
      (fun src ws ->
        if List.sort compare ws <> List.sort compare queued.(src) then
          Alcotest.failf "cycle %d: node %d's injection ring holds %d entries for %d queued worms"
            (Engine.now engine) src (List.length ws) (List.length queued.(src)))
      held
  in
  let rng = Rng.create 11 in
  let worms = 2_400 in
  for i = 1 to worms do
    let src = 1 + Rng.int rng (nodes - 1) in
    let dst =
      if Rng.int rng 4 = 0 then 0 else (src + 1 + Rng.int rng (nodes - 1)) mod nodes
    in
    let p =
      { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
        payload = Bytes.make (4 * (1 + Rng.int rng 48)) 'x'; seq = i }
    in
    Engine.schedule_at engine ~time:(Rng.int rng 20_000) (fun _ ->
        Flit.send f p;
        peak := max !peak (live ()))
  done;
  for k = 0 to 800 do
    Engine.schedule_at engine ~time:(k * 31) probe
  done;
  Engine.run_until_idle engine;
  probe ();
  checki "every worm delivered" worms !got;
  checki "no worm left in flight" 0 (live ());
  checkb "hotspot rings grew" true !grown;
  checkb "many worms in flight at once" true (!peak > 16);
  let pow2 = ref 1 in
  while !pow2 < !peak do
    pow2 := 2 * !pow2
  done;
  let cap = snd (Flit.worms f) in
  if cap > !pow2 then
    Alcotest.failf "worm table %d slots for a peak of %d in flight" cap !peak

(* ---------- System + NI end to end ---------- *)

let two_nodes () =
  let sys = System.create ~nodes:2 () in
  let snd = System.node sys 0 and rcv = System.node sys 1 in
  let sp = Scheduler.spawn snd.System.machine ~name:"s" in
  let rp = Scheduler.spawn rcv.System.machine ~name:"r" in
  (sys, snd, rcv, sp, rp)

let test_export_import_plumbing () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:2 in
  checki "two frames" 2 (List.length export.System.frames);
  (* frames are pinned *)
  List.iter
    (fun f -> checkb "pinned" true (M.frame_is_pinned rcv.System.machine f))
    export.System.frames;
  System.import_export sys ~node:0 ~proc:sp ~first_index:3 export;
  (* NIPT entries installed *)
  let backend = Ni.backend snd.System.ni in
  (match Backend.decode backend ~index:3 with
  | Some e ->
      checki "points at receiver" 1 e.Backend.dst_node;
      checki "owned by the sender" sp.Udma_os.Proc.pid e.Backend.owner
  | None -> Alcotest.fail "NIPT entry missing");
  checki "two entries" 2 (Backend.valid_count backend);
  System.release_export sys export;
  List.iter
    (fun f -> checkb "unpinned" false (M.frame_is_pinned rcv.System.machine f))
    export.System.frames

let test_deliberate_update_send () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  System.import_export sys ~node:0 ~proc:sp ~first_index:0 export;
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  let data = pattern 1024 5 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf data;
  let cpu = Kernel.user_cpu snd.System.machine sp in
  (match
     Initiator.transfer cpu ~layout:snd.System.machine.M.layout
       ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr snd.System.machine ~index:0 ~offset:0))
       ~nbytes:1024 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "send failed: %a" Initiator.pp_error e);
  System.run_until_idle sys;
  checki "one packet sent" 1 (Ni.packets_sent snd.System.ni);
  checki "one packet received" 1 (Ni.packets_received rcv.System.ni);
  checki "bytes" 1024 (Ni.bytes_received rcv.System.ni);
  Alcotest.check Alcotest.bytes "payload in receiver memory" data
    (Kernel.read_user rcv.System.machine rp ~vaddr:export.System.vaddr ~len:1024)

let test_ni_alignment_rejected () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  ignore rp;
  let rcv = System.node sys 1 in
  let rp2 = List.hd rcv.System.machine.M.procs in
  let export = System.export_buffer sys ~node:1 ~proc:rp2 ~pages:1 in
  System.import_export sys ~node:0 ~proc:sp ~first_index:0 export;
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf (pattern 64 0);
  let cpu = Kernel.user_cpu snd.System.machine sp in
  (* misaligned count: the NI's validate hook reports a device error,
     which the initiator surfaces as a hard error *)
  match
    Initiator.transfer cpu ~layout:snd.System.machine.M.layout
      ~src:(Initiator.Memory buf)
      ~dst:(Initiator.Device (Kernel.vdev_addr snd.System.machine ~index:0 ~offset:0))
      ~nbytes:10 ()
  with
  | Error (Initiator.Hard_error st) ->
      checkb "device error bits" true (st.Status.device_error <> 0)
  | Ok _ -> Alcotest.fail "misaligned transfer accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Initiator.pp_error e

let test_ni_unconfigured_page_rejected () =
  let sys, snd, _rcv, sp, _rp = two_nodes () in
  ignore sys;
  (* map the device-proxy page but leave the NIPT empty *)
  (match
     Udma_os.Syscall.map_device_proxy snd.System.machine sp ~vdev_index:5
       ~pdev_index:5 ~writable:true
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grant failed");
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf (pattern 64 0);
  let cpu = Kernel.user_cpu snd.System.machine sp in
  match
    Initiator.transfer cpu ~layout:snd.System.machine.M.layout
      ~src:(Initiator.Memory buf)
      ~dst:(Initiator.Device (Kernel.vdev_addr snd.System.machine ~index:5 ~offset:0))
      ~nbytes:64 ()
  with
  | Error (Initiator.Hard_error _) -> ()
  | Ok _ -> Alcotest.fail "send through empty NIPT entry accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Initiator.pp_error e

(* A send on an interface with no router attached is dropped, and the
   drop reaches the machine's published metrics. *)
let test_ni_send_without_router_dropped () =
  let machine = M.create () in
  let ni = Ni.create ~id:0 ~machine ~pool:(Payload_pool.create ()) () in
  Ni.send_raw ni ~dst_node:1 ~dst_paddr:0 (Bytes.make 64 'x');
  checki "ni.send_drops" 1
    (Udma_obs.Metrics.get machine.M.metrics "ni.send_drops");
  checki "nothing sent" 0 (Ni.packets_sent ni)

(* ---------- payload pool ---------- *)

(* Three 4 KB sends back to back, each to its own receive page, then
   three more with new contents: the second round runs on the buffers
   the first returned, and every page holds exactly its last send. *)
let test_pool_reuse_lands_exactly () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  let m = snd.System.machine in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:4 () in
  let buf = Kernel.alloc_buffer m sp ~bytes:(3 * 4096) in
  let cpu = Kernel.user_cpu m sp in
  let pool = System.pool sys in
  let round seed =
    let data = pattern (3 * 4096) seed in
    Kernel.write_user m sp ~vaddr:buf data;
    for page = 0 to 2 do
      match
        Initiator.transfer cpu ~layout:m.M.layout
          ~src:(Initiator.Memory (buf + (page * 4096)))
          ~dst:(Initiator.Device (Messaging.dev_vaddr ch ~offset:(page * 4096)))
          ~nbytes:4096 ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "send failed: %a" Initiator.pp_error e
    done;
    System.run_until_idle sys;
    check Alcotest.bytes
      (Printf.sprintf "round %d landed" seed)
      data
      (Messaging.read_payload ch ~len:(3 * 4096));
    Payload_pool.held pool
  in
  let first = round 1 in
  checkb "deposits returned their buffers" true (first > 0);
  let second = round 2 in
  checki "the second round took no fresh buffer" first second;
  let third = round 3 in
  checki "nor the third" first third

(* A send an interface drops for want of a router never reaches a
   deposit, so its buffer is not returned. *)
let test_pool_dropped_send_returns_nothing () =
  let machine = M.create () in
  let pool = Payload_pool.create () in
  let ni = Ni.create ~id:0 ~machine ~pool () in
  Ni.send_raw ni ~dst_node:1 ~dst_paddr:0 (Bytes.make 4096 'x');
  checki "ni.send_drops" 1
    (Udma_obs.Metrics.get machine.M.metrics "ni.send_drops");
  checki "nothing returned" 0 (Payload_pool.held pool)

let test_pool_refuses_double_return () =
  let pool = Payload_pool.create () in
  let b = Payload_pool.take pool 4096 in
  Payload_pool.give pool b;
  Payload_pool.give pool b;
  checki "held once" 1 (Payload_pool.held pool);
  let b1 = Payload_pool.take pool 4096 in
  let b2 = Payload_pool.take pool 4096 in
  checkb "taken back" true (b1 == b);
  checkb "no second owner" false (b2 == b);
  Payload_pool.give pool (Bytes.create (Payload_pool.min_bytes - 4));
  checki "short buffers are not kept" 0 (Payload_pool.held pool);
  (* a kept buffer of another length is not handed out *)
  Payload_pool.give pool b;
  let big = Payload_pool.take pool 8192 in
  checki "exact length" 8192 (Bytes.length big);
  checkb "a fresh buffer" false (big == b);
  checki "the 4096-byte buffer stays" 1 (Payload_pool.held pool)

let test_receive_marks_dirty () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  System.import_export sys ~node:0 ~proc:sp ~first_index:0 export;
  let vpn = export.System.vaddr / Layout.page_size rcv.System.machine.M.layout in
  let pte =
    Option.get (Udma_mmu.Page_table.find rp.Udma_os.Proc.page_table vpn)
  in
  pte.Udma_mmu.Pte.dirty <- false;
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf (pattern 64 0);
  let cpu = Kernel.user_cpu snd.System.machine sp in
  (match
     Initiator.transfer cpu ~layout:snd.System.machine.M.layout
       ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr snd.System.machine ~index:0 ~offset:0))
       ~nbytes:64 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "send failed: %a" Initiator.pp_error e);
  System.run_until_idle sys;
  checkb "receive dirtied the page (I3 discipline)" true pte.Udma_mmu.Pte.dirty

(* ---------- Messaging ---------- *)

let test_messaging_roundtrip () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  checki "capacity excludes flag" (4096 - 4) (Messaging.capacity ch);
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  let data = pattern 256 9 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf data;
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  let seq =
    match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes:256 () with
    | Ok seq -> seq
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
  in
  checki "first message" 1 seq;
  (match Messaging.recv_wait ch cpu_r ~seq () with
  | Ok polls -> checkb "took some polls" true (polls >= 0)
  | Error msg -> Alcotest.fail msg);
  Alcotest.check Alcotest.bytes "payload" data
    (Bytes.sub (Messaging.read_payload ch ~len:256) 0 256)

let test_messaging_flag_after_payload () =
  (* the flag word must never be observable before the payload *)
  let sys, snd, _rcv, sp, rp = two_nodes () in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  for round = 1 to 10 do
    let data = pattern 512 round in
    Kernel.write_user snd.System.machine sp ~vaddr:buf data;
    let seq =
      match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes:512 () with
      | Ok seq -> seq
      | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
    in
    (match Messaging.recv_wait ch cpu_r ~seq () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    Alcotest.check Alcotest.bytes
      (Printf.sprintf "round %d payload complete at flag time" round)
      data
      (Bytes.sub (Messaging.read_payload ch ~len:512) 0 512)
  done

let test_messaging_multi_page () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:3 () in
  let nbytes = 2 * 4096 in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:nbytes in
  let data = pattern nbytes 3 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf data;
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  let seq =
    match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes () with
    | Ok seq -> seq
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
  in
  (match Messaging.recv_wait ch cpu_r ~seq () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.check Alcotest.bytes "multi-page payload" data
    (Messaging.read_payload ch ~len:nbytes)

(* The payload is captured when the transfer moves it: once a send
   returns, or [inject] is called, the sender may overwrite its buffer
   even though the packets are still queued in the NI. *)
let test_send_time_capture () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let m = snd.System.machine in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let buf = Kernel.alloc_buffer m sp ~bytes:4096 in
  let cpu = Kernel.user_cpu m sp in
  let received () = Ni.packets_received rcv.System.ni in
  let captured name ~packets ~want send =
    let before = received () in
    send ();
    checkb (name ^ ": packets still queued at return") true
      (received () < before + packets);
    Kernel.write_user m sp ~vaddr:buf (Bytes.make 4096 '\xff');
    System.run_until_idle sys;
    checki (name ^ ": all delivered") (before + packets) (received ());
    check Alcotest.bytes name want
      (Messaging.read_payload ch ~len:(Bytes.length want))
  in
  let ok = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
  in
  let src = pattern 4092 5 in
  Kernel.write_user m sp ~vaddr:buf src;
  captured "contiguous send" ~packets:1 ~want:src (fun () ->
      ok (Messaging.send_nowait ch cpu ~src_vaddr:buf ~nbytes:4092 ()));
  let src = pattern 4096 11 in
  Kernel.write_user m sp ~vaddr:buf src;
  let stride = 16 and chunk = 4 and reps = 64 in
  let want =
    Bytes.init (chunk * reps) (fun j -> Bytes.get src ((j / chunk * stride) + (j mod chunk)))
  in
  (* one packet per element, plus the flag word's *)
  captured "strided send" ~packets:(reps + 1) ~want (fun () ->
      ok (Messaging.send_strided ch cpu ~src_vaddr:buf ~stride ~chunk
            ~nbytes:(chunk * reps) ()));
  let data = pattern 512 7 in
  let want = Bytes.copy data in
  let before = received () in
  Messaging.inject ch data;
  checki "inject: packet still queued" before (received ());
  Bytes.fill data 0 512 '\000';
  System.run_until_idle sys;
  check Alcotest.bytes "inject with a reused buffer" want
    (Messaging.read_payload ch ~len:512)

(* Minor words a warm 2-node strided send of 256 4-byte elements may
   allocate per element, round trip: the initiation, the DMA completion
   and every packet's trip to its deposit, plus the flag word's send
   (16.23 measured, plus 10 %; 44.20 when each send built a list of
   element records). *)
let strided_round_trip_words_max = 17.86

let test_strided_round_trip_alloc () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  let m = snd.System.machine in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let buf = Kernel.alloc_buffer m sp ~bytes:4096 in
  let src = pattern 2048 3 in
  Kernel.write_user m sp ~vaddr:buf src;
  let cpu = Kernel.user_cpu m sp in
  let elements = 256 in
  let send () =
    match Messaging.send_strided ch cpu ~src_vaddr:buf ~stride:8 ~chunk:4 ~nbytes:(4 * elements) () with
    | Ok _ -> System.run_until_idle sys
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
  in
  for _ = 1 to 50 do send () done;
  let rounds = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do send () done;
  let per_element = (Gc.minor_words () -. w0) /. float_of_int (rounds * elements) in
  check Alcotest.bytes "every element deposited"
    (Bytes.init (4 * elements) (fun j -> Bytes.get src ((j / 4 * 8) + (j mod 4))))
    (Messaging.read_payload ch ~len:(4 * elements));
  Printf.printf "strided round trip guard: %.3f minor words per element\n" per_element;
  if per_element > strided_round_trip_words_max then
    Alcotest.failf "%.2f minor words per element > %.2f" per_element
      strided_round_trip_words_max

let test_messaging_size_checks () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  ignore snd;
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let cpu = Kernel.user_cpu (System.node sys 0).System.machine sp in
  checkb "oversized rejected" true
    (try ignore (Messaging.send ch cpu ~src_vaddr:4096 ~nbytes:8192 ()); false
     with Invalid_argument _ -> true);
  checkb "unaligned rejected" true
    (try ignore (Messaging.send ch cpu ~src_vaddr:4096 ~nbytes:10 ()); false
     with Invalid_argument _ -> true)

let test_queued_system_pipelined_send () =
  let config =
    { System.default_config with
      System.machine =
        { M.default_config with
          M.udma_mode = Some (Udma.Udma_engine.Queued { depth = 8 }) } }
  in
  let sys = System.create ~config ~nodes:2 () in
  let snd = System.node sys 0 in
  let sp = Scheduler.spawn snd.System.machine ~name:"s" in
  let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"r" in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:4 () in
  let nbytes = 3 * 4096 in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:nbytes in
  let data = pattern nbytes 7 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf data;
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  let seq =
    match Messaging.send_pipelined ch cpu_s ~src_vaddr:buf ~nbytes () with
    | Ok seq -> seq
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
  in
  (match Messaging.recv_wait ch cpu_r ~seq () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  check Alcotest.bytes "pipelined multi-page payload" data
    (Messaging.read_payload ch ~len:nbytes)

let test_pipelined_beats_blocking () =
  let run pipelined =
    let config =
      { System.default_config with
        System.machine =
          { M.default_config with
            M.udma_mode = Some (Udma.Udma_engine.Queued { depth = 8 }) } }
    in
    let sys = System.create ~config ~nodes:2 () in
    let snd = System.node sys 0 in
    let sp = Scheduler.spawn snd.System.machine ~name:"s" in
    let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"r" in
    let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:5 () in
    let nbytes = 4 * 4096 in
    let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:nbytes in
    Kernel.write_user snd.System.machine sp ~vaddr:buf (pattern nbytes 1);
    let cpu = Kernel.user_cpu snd.System.machine sp in
    let send = if pipelined then Messaging.send_pipelined else Messaging.send in
    (* warm *)
    ignore (send ch cpu ~src_vaddr:buf ~nbytes ());
    System.run_until_idle sys;
    let t0 = Engine.now (System.engine sys) in
    (match send ch cpu ~src_vaddr:buf ~nbytes () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e);
    let dt = Engine.now (System.engine sys) - t0 in
    System.run_until_idle sys;
    dt
  in
  let blocking = run false and pipelined = run true in
  checkb
    (Printf.sprintf "pipelined (%d) < blocking (%d)" pipelined blocking)
    true (pipelined < blocking)

let test_nine_node_corner_to_corner () =
  (* 3x3 mesh: corner-to-corner traffic pays 4 hops and still arrives *)
  let sys = System.create ~nodes:9 () in
  let p0 = Scheduler.spawn (System.node sys 0).System.machine ~name:"p0" in
  let p8 = Scheduler.spawn (System.node sys 8).System.machine ~name:"p8" in
  checki "4 hops" 4 (Router.hops (System.router sys) ~src:0 ~dst:8);
  let ch = Messaging.connect sys ~sender:(0, p0) ~receiver:(8, p8) ~pages:1 () in
  let near = Scheduler.spawn (System.node sys 1).System.machine ~name:"p1" in
  let ch_near =
    Messaging.connect sys ~sender:(0, p0) ~receiver:(1, near) ~first_index:4
      ~pages:1 ()
  in
  let m0 = (System.node sys 0).System.machine in
  let buf = Kernel.alloc_buffer m0 p0 ~bytes:4096 in
  Kernel.write_user m0 p0 ~vaddr:buf (pattern 512 3);
  let cpu0 = Kernel.user_cpu m0 p0 in
  let cpu8 = Kernel.user_cpu (System.node sys 8).System.machine p8 in
  let cpu1 = Kernel.user_cpu (System.node sys 1).System.machine near in
  let time_send ch cpu_r =
    let t0 = Engine.now (System.engine sys) in
    let seq =
      match Messaging.send ch cpu0 ~src_vaddr:buf ~nbytes:512 () with
      | Ok seq -> seq
      | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
    in
    (match Messaging.recv_wait ch cpu_r ~seq () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    let dt = Engine.now (System.engine sys) - t0 in
    System.run_until_idle sys;
    dt
  in
  let far = time_send ch cpu8 in
  let nearby = time_send ch_near cpu1 in
  checkb
    (Printf.sprintf "more hops cost more (far %d vs near %d)" far nearby)
    true (far > nearby);
  check Alcotest.bytes "far payload intact" (pattern 512 3)
    (Bytes.sub (Messaging.read_payload ch ~len:512) 0 512)

let test_four_node_all_pairs () =
  let sys = System.create ~nodes:4 () in
  let procs =
    Array.init 4 (fun i ->
        Scheduler.spawn (System.node sys i).System.machine
          ~name:(Printf.sprintf "p%d" i))
  in
  let cpus =
    Array.init 4 (fun i ->
        Kernel.user_cpu (System.node sys i).System.machine procs.(i))
  in
  (* one channel per ordered pair, each with its own NIPT slice *)
  let idx = ref 0 in
  let chans = Hashtbl.create 16 in
  for s = 0 to 3 do
    for r = 0 to 3 do
      if s <> r then begin
        Hashtbl.replace chans (s, r)
          (Messaging.connect sys ~sender:(s, procs.(s)) ~receiver:(r, procs.(r))
             ~first_index:!idx ~pages:1 ());
        incr idx
      end
    done
  done;
  (* every pair sends a distinct message; all must arrive intact *)
  for s = 0 to 3 do
    for r = 0 to 3 do
      if s <> r then begin
        let m = (System.node sys s).System.machine in
        let buf = Kernel.alloc_buffer m procs.(s) ~bytes:4096 in
        let data = pattern 128 ((s * 4) + r) in
        Kernel.write_user m procs.(s) ~vaddr:buf data;
        let ch = Hashtbl.find chans (s, r) in
        let seq =
          match Messaging.send ch cpus.(s) ~src_vaddr:buf ~nbytes:128 () with
          | Ok seq -> seq
          | Error e -> Alcotest.failf "send %d->%d: %a" s r Messaging.pp_send_error e
        in
        match Messaging.recv_wait ch cpus.(r) ~seq () with
        | Ok _ ->
            Alcotest.check Alcotest.bytes
              (Printf.sprintf "payload %d->%d" s r)
              data
              (Bytes.sub (Messaging.read_payload ch ~len:128) 0 128)
        | Error msg -> Alcotest.fail msg
      end
    done
  done;
  System.run_until_idle sys

(* ---------- Collectives ---------- *)

module Collective = Udma_shrimp.Collective

let group_of n =
  let sys = System.create ~nodes:n () in
  let members =
    List.init n (fun i ->
        (i, Scheduler.spawn (System.node sys i).System.machine
              ~name:(Printf.sprintf "rank%d" i)))
  in
  (sys, Collective.create_group sys ~members ())

let test_collective_barrier () =
  let _sys, g = group_of 4 in
  checki "size" 4 (Collective.group_size g);
  for round = 1 to 3 do
    List.iter (fun r -> Collective.barrier g ~rank:r) [ 2; 0; 3; 1 ];
    checki (Printf.sprintf "round %d completed" round) round
      (Collective.barriers_completed g)
  done

let test_collective_barrier_double_arrival () =
  let _sys, g = group_of 2 in
  Collective.barrier g ~rank:1;
  checkb "double arrival rejected" true
    (try Collective.barrier g ~rank:1; false with Invalid_argument _ -> true)

let test_collective_broadcast () =
  (* 4 nodes: 3 leaves a partial mesh row and is rejected by Router *)
  let sys, g = group_of 4 in
  let root_m = (System.node sys 0).System.machine in
  let root_p = List.hd root_m.M.procs in
  let buf = Kernel.alloc_buffer root_m root_p ~bytes:4096 in
  let data = pattern 512 17 in
  Kernel.write_user root_m root_p ~vaddr:buf data;
  Collective.broadcast g ~root:0 ~src_vaddr:buf ~nbytes:512;
  for rank = 1 to 3 do
    let m = (System.node sys rank).System.machine in
    let p = List.hd m.M.procs in
    let v = Collective.bcast_recv_vaddr g ~root:0 ~rank in
    check Alcotest.bytes
      (Printf.sprintf "rank %d got the broadcast" rank)
      data
      (Kernel.read_user m p ~vaddr:v ~len:512)
  done

let test_collective_all_gather () =
  let sys, g = group_of 4 in
  let contributions =
    Array.init 4 (fun rank ->
        let m = (System.node sys rank).System.machine in
        let p = List.hd m.M.procs in
        let buf = Kernel.alloc_buffer m p ~bytes:4096 in
        Kernel.write_user m p ~vaddr:buf (pattern 256 (100 + rank));
        (buf, 256))
  in
  Collective.all_gather g ~contributions;
  for rank = 0 to 3 do
    for from_rank = 0 to 3 do
      if from_rank <> rank then begin
        let m = (System.node sys rank).System.machine in
        let p = List.hd m.M.procs in
        let v = Collective.gather_recv_vaddr g ~from_rank ~rank in
        check Alcotest.bytes
          (Printf.sprintf "rank %d has rank %d's data" rank from_rank)
          (pattern 256 (100 + from_rank))
          (Kernel.read_user m p ~vaddr:v ~len:256)
      end
    done
  done

(* ---------- Automatic update (§9) ---------- *)

module Auto_update = Udma_shrimp.Auto_update

let auto_rig () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  (* make the page resident and dirty so plain stores work *)
  Kernel.write_user snd.System.machine sp ~vaddr:buf (Bytes.make 4096 '\000');
  System.auto_bind sys ~node:0 ~proc:sp ~vaddr:buf export;
  (sys, snd, rcv, sp, rp, export, buf)

let test_auto_update_propagates_word () =
  let sys, snd, rcv, sp, rp, export, buf = auto_rig () in
  ignore rcv;
  let cpu = Kernel.user_cpu snd.System.machine sp in
  cpu.Udma.Initiator.store ~vaddr:(buf + 64) 0xBEEFl;
  (* the combining window must elapse before the update is launched *)
  System.run_until_idle sys;
  checki "one update packet" 1 (Auto_update.updates_sent snd.System.auto);
  let got =
    Kernel.read_user (System.node sys 1).System.machine rp
      ~vaddr:(export.System.vaddr + 64) ~len:4
  in
  Alcotest.check Alcotest.int32 "word arrived at same offset" 0xBEEFl
    (Bytes.get_int32_le got 0)

let test_auto_update_combines_contiguous () =
  let sys, snd, _rcv, sp, rp, export, buf = auto_rig () in
  let cpu = Kernel.user_cpu snd.System.machine sp in
  (* eight contiguous words: one combined packet *)
  for w = 0 to 7 do
    cpu.Udma.Initiator.store ~vaddr:(buf + 128 + (w * 4)) (Int32.of_int w)
  done;
  System.run_until_idle sys;
  checki "single combined packet" 1 (Auto_update.updates_sent snd.System.auto);
  checki "seven merged words" 7 (Auto_update.words_combined snd.System.auto);
  let got =
    Kernel.read_user (System.node sys 1).System.machine rp
      ~vaddr:(export.System.vaddr + 128) ~len:32
  in
  for w = 0 to 7 do
    checki (Printf.sprintf "word %d" w) w
      (Int32.to_int (Bytes.get_int32_le got (w * 4)))
  done

let test_auto_update_discontiguous_flushes () =
  let sys, snd, _rcv, sp, _rp, _export, buf = auto_rig () in
  let cpu = Kernel.user_cpu snd.System.machine sp in
  cpu.Udma.Initiator.store ~vaddr:(buf + 0) 1l;
  cpu.Udma.Initiator.store ~vaddr:(buf + 512) 2l;
  cpu.Udma.Initiator.store ~vaddr:(buf + 1024) 3l;
  System.run_until_idle sys;
  checki "three separate packets" 3 (Auto_update.updates_sent snd.System.auto)

let test_auto_update_unbind_stops () =
  let sys, snd, _rcv, sp, rp, export, buf = auto_rig () in
  let cpu = Kernel.user_cpu snd.System.machine sp in
  cpu.Udma.Initiator.store ~vaddr:buf 7l;
  let frame =
    Option.get
      (Vm.frame_of_vpn snd.System.machine sp
         ~vpn:(buf / Layout.page_size snd.System.machine.M.layout))
  in
  (* unbind flushes the pending run, then silences the page *)
  Auto_update.unbind snd.System.auto ~frame;
  cpu.Udma.Initiator.store ~vaddr:(buf + 256) 8l;
  System.run_until_idle sys;
  checki "only the pre-unbind update" 1 (Auto_update.updates_sent snd.System.auto);
  let got =
    Kernel.read_user (System.node sys 1).System.machine rp
      ~vaddr:export.System.vaddr ~len:4
  in
  Alcotest.check Alcotest.int32 "flushed word arrived" 7l (Bytes.get_int32_le got 0)

let test_auto_update_ignores_other_pages () =
  let sys, snd, _rcv, sp, _rp, _export, _buf = auto_rig () in
  let other = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:other (Bytes.make 8 'x');
  let cpu = Kernel.user_cpu snd.System.machine sp in
  cpu.Udma.Initiator.store ~vaddr:other 9l;
  System.run_until_idle sys;
  checki "unbound page not propagated" 0 (Auto_update.updates_sent snd.System.auto)

(* A node's memory is allocated as it is written, so building a 64-node
   system stays within 400 k words (zero-filled 2 MB per node took
   16.9 M). *)
let test_system_create_allocation () =
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  let w0 = words () in
  let sys = System.create ~nodes:64 () in
  let used = words () -. w0 in
  Printf.printf "system guard: create 64 nodes allocated %.0f words\n" used;
  checki "nodes" 64 (System.node_count sys);
  if used > 400_000.0 then
    Alcotest.failf "System.create ~nodes:64 allocated %.0f words > 400000" used

let () =
  Alcotest.run "udma_shrimp"
    [
      ("nipt", [ Alcotest.test_case "basic" `Quick test_nipt_basic ]);
      ("fifo", [ Alcotest.test_case "order + capacity" `Quick test_fifo_order_and_capacity ]);
      ( "router",
        [
          Alcotest.test_case "mesh hops" `Quick test_router_mesh_hops;
          Alcotest.test_case "delivery + latency" `Quick
            test_router_delivery_and_latency;
          Alcotest.test_case "unregistered sink" `Quick test_router_unregistered_sink;
          Alcotest.test_case "contention on idle links = closed form" `Quick
            test_router_contention_idle_closed_form;
          Alcotest.test_case "contention queues a shared link" `Quick
            test_router_contention_queues_shared_link;
          Alcotest.test_case "partial-row node counts rejected" `Quick
            test_router_rejects_partial_row;
          Alcotest.test_case "negative timing rejected" `Quick
            test_router_rejects_negative_timing;
          Alcotest.test_case "validate is the one config check" `Quick
            test_router_validate;
          Alcotest.test_case "VCs degenerate to FIFO timing" `Quick
            test_router_vcs_degenerate_timing;
          Alcotest.test_case "credit gate + NACK retry" `Quick
            test_router_credit_gate;
          Alcotest.test_case "adaptive idle = dimension order" `Quick
            test_adaptive_idle_matches_dimension_order;
          Alcotest.test_case "adaptive routes around a dead link" `Quick
            test_adaptive_routes_around_dead_link;
          Alcotest.test_case "dimension order crosses a dead link" `Quick
            test_dimension_order_crosses_dead_link;
          Alcotest.test_case "slow link stretches occupancy" `Quick
            test_slow_link_stretches_occupancy;
          Alcotest.test_case "adaptive prefers the less busy link" `Quick
            test_adaptive_prefers_less_busy_link;
          Alcotest.test_case "set_link_fault validates" `Quick
            test_set_link_fault_validates;
          Alcotest.test_case "flit: pipelined hand schedule" `Quick
            test_flit_pipelined_schedule;
          Alcotest.test_case "flit: 2-VC interleaving hand schedule" `Quick
            test_flit_vc_interleaving;
          Alcotest.test_case "flit: blocked worm + credit release" `Quick
            test_flit_blocked_worm_credit_release;
          Alcotest.test_case "flit: regime digests pinned" `Quick
            test_flit_regimes_pinned;
          Alcotest.test_case "flit: regime event counters pinned" `Quick
            test_flit_regime_events_pinned;
          Alcotest.test_case "flit: registry reads pinned" `Quick
            test_flit_registry_pinned;
          Alcotest.test_case "flit: allocation per grant bounded" `Quick
            test_flit_allocation_guard;
          Alcotest.test_case "flit: worm table reuse + ring growth" `Quick
            test_flit_worm_table_and_rings;
          Alcotest.test_case "analytic: no allocation per hop" `Quick
            test_analytic_allocation_guard;
          Alcotest.test_case "analytic: a VC's depth counts its own claims" `Quick
            test_analytic_vc_depth_own_claims;
          Alcotest.test_case "flit: run-splitting scenarios pinned" `Quick
            test_flit_split_runs_pinned;
          Alcotest.test_case "flit: visit census" `Quick test_flit_visit_census;
          Alcotest.test_case "analytic: settled counters pinned" `Quick
            test_analytic_settled_pinned;
        ] );
      ( "system",
        [
          Alcotest.test_case "export/import plumbing" `Quick
            test_export_import_plumbing;
          Alcotest.test_case "deliberate update send" `Quick
            test_deliberate_update_send;
          Alcotest.test_case "alignment rejected" `Quick test_ni_alignment_rejected;
          Alcotest.test_case "unconfigured NIPT page rejected" `Quick
            test_ni_unconfigured_page_rejected;
          Alcotest.test_case "send without router dropped" `Quick
            test_ni_send_without_router_dropped;
          Alcotest.test_case "pool: reused buffers land exactly" `Quick
            test_pool_reuse_lands_exactly;
          Alcotest.test_case "pool: dropped send returns nothing" `Quick
            test_pool_dropped_send_returns_nothing;
          Alcotest.test_case "pool: double return refused" `Quick
            test_pool_refuses_double_return;
          Alcotest.test_case "receive marks dirty" `Quick test_receive_marks_dirty;
          Alcotest.test_case "create allocation bounded" `Quick
            test_system_create_allocation;
        ] );
      ( "collective",
        [
          Alcotest.test_case "barrier" `Quick test_collective_barrier;
          Alcotest.test_case "barrier double arrival" `Quick
            test_collective_barrier_double_arrival;
          Alcotest.test_case "broadcast" `Quick test_collective_broadcast;
          Alcotest.test_case "all-gather" `Quick test_collective_all_gather;
        ] );
      ( "auto-update",
        [
          Alcotest.test_case "word propagates" `Quick test_auto_update_propagates_word;
          Alcotest.test_case "contiguous writes combine" `Quick
            test_auto_update_combines_contiguous;
          Alcotest.test_case "discontiguous writes flush" `Quick
            test_auto_update_discontiguous_flushes;
          Alcotest.test_case "unbind stops propagation" `Quick
            test_auto_update_unbind_stops;
          Alcotest.test_case "other pages ignored" `Quick
            test_auto_update_ignores_other_pages;
        ] );
      ( "messaging",
        [
          Alcotest.test_case "roundtrip" `Quick test_messaging_roundtrip;
          Alcotest.test_case "flag after payload" `Quick
            test_messaging_flag_after_payload;
          Alcotest.test_case "multi-page message" `Quick test_messaging_multi_page;
          Alcotest.test_case "size checks" `Quick test_messaging_size_checks;
          Alcotest.test_case "payload captured at send time" `Quick
            test_send_time_capture;
          Alcotest.test_case "queued system pipelined send" `Quick
            test_queued_system_pipelined_send;
          Alcotest.test_case "pipelined beats blocking" `Quick
            test_pipelined_beats_blocking;
          Alcotest.test_case "9-node corner to corner" `Quick
            test_nine_node_corner_to_corner;
          Alcotest.test_case "4-node all pairs" `Quick test_four_node_all_pairs;
          Alcotest.test_case "strided round trip allocation bounded" `Quick
            test_strided_round_trip_alloc;
        ] );
    ]
