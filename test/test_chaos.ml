(* The chaos harness as a test: a clean sweep over many seeds must
   find no I1–I4 violation, and — the soundness half — each deliberate
   kernel bug planted with [~skip_invariant] must be detected by some
   seed, replay deterministically, shrink, and be reported under the
   right invariant's name. *)

module M = Udma_os.Machine
module Oracle = Udma_check.Oracle
module Chaos = Udma_check.Chaos

let sweep_seeds = 512
let mutation_seeds = 256
let mesh_seeds = 64

(* ---------- the sweep itself: no violations in a correct kernel ---------- *)

let test_clean_sweep () =
  match Chaos.sweep Chaos.node ~seeds:sweep_seeds () with
  | [] -> ()
  | f :: _ as failures ->
      Alcotest.failf "%d of %d seeds violated an invariant; first:\n%s"
        (List.length failures) sweep_seeds
        (Chaos.report Chaos.node (Chaos.shrink Chaos.node f))

let test_mesh_sweep () =
  match Chaos.sweep Chaos.mesh ~seeds:mesh_seeds () with
  | [] -> ()
  | f :: _ as failures ->
      Alcotest.failf "%d of %d mesh seeds violated an invariant; first:\n%s"
        (List.length failures) mesh_seeds
        (Chaos.report Chaos.mesh (Chaos.shrink Chaos.mesh f))

(* A failing run must replay identically: same step, same invariant,
   same detail. Exercised through the mutated systems below. *)
let check_replay sc ~skip_invariant (f : _ Chaos.failure) =
  match Chaos.run_plan sc ~skip_invariant f.Chaos.plan with
  | Chaos.Pass ->
      Alcotest.failf "seed %d failed once but replayed clean"
        (sc.Chaos.seed_of f.Chaos.plan.Chaos.setup)
  | Chaos.Fail f' ->
      Alcotest.(check int) "replay stops at the same step" f.Chaos.step
        f'.Chaos.step;
      Alcotest.(check string) "replay reports the same violation"
        f.Chaos.violation.Oracle.detail f'.Chaos.violation.Oracle.detail

(* ---------- mutation self-test: the oracles catch planted bugs ---------- *)

(* Each planted bug ([~skip_invariant]) must be found within [seeds]
   seeds under the invariant [expect] (default: the planted one), replay
   deterministically, shrink to at most [max_shrunk] actions that still
   fail at their last step (the last action or the final drain) under
   the same invariant, and be named in the printed report.

   Node bugs I1-I4 break the invariant they name. In the mesh, I1
   needs each node's idle second process (a preemption that switches)
   and I4 a half-initiated pair's latched frame under an eviction
   storm; I2 (mapping consistency) breaks under paging pressure
   regardless of the network; N1 (a leaked credit return) and N2 (a
   stuck VC arbiter) are router bugs. The protection bugs P1 (ownership check skipped) and P2
   (stale datapath entry survives teardown) surface as cross-tenant
   isolation leaks (I5), D1 (per-element page clamp skipped) as frames
   the proxy never named (I4), and the flit bugs F1 (a flit leaked on a
   dead-link retry) and F2 (an arbiter double grant against one credit)
   arm only on flit-crossing seeds and both surface through the F1
   conservation oracle. *)
let max_shrunk = 8

let test_mutation sc ~seeds ?expect inv () =
  let expect = Option.value expect ~default:(M.invariant_name inv) in
  match Chaos.first_failure sc ~skip_invariant:inv ~seeds () with
  | None ->
      Alcotest.failf
        "a system built without the %s maintenance action survived %d chaos \
         seeds — the %s oracle is not sound"
        (M.invariant_name inv) seeds expect
  | Some f ->
      let name (f : _ Chaos.failure) =
        M.invariant_name f.Chaos.violation.Oracle.invariant
      in
      Alcotest.(check string) "the violated invariant is the planted bug's"
        expect (name f);
      check_replay sc ~skip_invariant:inv f;
      let s = Chaos.shrink sc ~skip_invariant:inv f in
      Alcotest.(check string) "shrinking preserves the invariant" expect
        (name s);
      let n = List.length s.Chaos.plan.Chaos.actions in
      if n > max_shrunk then
        Alcotest.failf "shrunk schedule has %d actions (more than %d)" n
          max_shrunk;
      if s.Chaos.step < n - 1 then
        Alcotest.failf "shrunk schedule fails at step %d of %d" s.Chaos.step n;
      check_replay sc ~skip_invariant:inv s;
      (* the printed repro recipe names the invariant *)
      let report = Chaos.report sc ~skip_invariant:inv s in
      let needle = expect ^ " violated" in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      if not (contains report needle) then
        Alcotest.failf "report does not name %s:\n%s" expect report

let test_node_mutation = test_mutation Chaos.node ~seeds:mutation_seeds
let test_mesh_mutation = test_mutation Chaos.mesh ~seeds:mesh_seeds

(* The mesh generator must actually exercise the new failure surface:
   across the sweep's seeds there have to be link-fault actions (dead,
   slowed and healed links), setups under both routing policies, and
   only routable node counts. *)
let test_mesh_generator_coverage () =
  let dead = ref 0 and slow = ref 0 and heal = ref 0 in
  let adaptive = ref 0 in
  let multi_vc = ref 0 and finite = ref 0 and unlimited = ref 0 in
  let squeeze = ref 0 and squeeze_tight = ref 0 in
  let rogue = ref 0 and revoke = ref 0 and backend_send = ref 0 in
  let shaped = ref 0 and half = ref 0 in
  let flit = ref 0 in
  for seed = 0 to mesh_seeds - 1 do
    let p = Chaos.plan_of_seed Chaos.mesh seed in
    let setup = p.Chaos.setup in
    if not (Udma_shrimp.Router.valid_nodes setup.Chaos.mesh_nodes) then
      Alcotest.failf "seed %d generated unroutable node count %d" seed
        setup.Chaos.mesh_nodes;
    if setup.Chaos.mesh_vcs < 1 || setup.Chaos.mesh_vcs > 4 then
      Alcotest.failf "seed %d generated vc count %d outside 1..4" seed
        setup.Chaos.mesh_vcs;
    (match setup.Chaos.mesh_credits with
    | Some n when n < 1 ->
        Alcotest.failf "seed %d generated nonpositive credits %d" seed n
    | Some _ -> incr finite
    | None -> incr unlimited);
    if setup.Chaos.adaptive then incr adaptive;
    if setup.Chaos.mesh_vcs > 1 then incr multi_vc;
    (* the apply step downgrades adaptive to dimension-order on flit
       seeds, so the plan may pair them freely; flit_words must still
       be sane *)
    (match setup.Chaos.mesh_crossing with
    | `Flit ->
        incr flit;
        if setup.Chaos.mesh_flit_words < 1 then
          Alcotest.failf "seed %d generated flit_words %d" seed
            setup.Chaos.mesh_flit_words
    | `Analytic -> ());
    List.iter
      (function
        | Chaos.M_link_fault { fault = Udma_shrimp.Router.Link_dead; _ } ->
            incr dead
        | Chaos.M_link_fault { fault = Udma_shrimp.Router.Link_slow _; _ } ->
            incr slow
        | Chaos.M_link_fault { fault = Udma_shrimp.Router.Link_ok; _ } ->
            incr heal
        | Chaos.M_credit_squeeze { credits } -> (
            incr squeeze;
            match credits with
            | Some n when n <= 3 -> incr squeeze_tight
            | Some _ | None -> ())
        | Chaos.M_rogue_tenant _ -> incr rogue
        | Chaos.M_revoke _ -> incr revoke
        | Chaos.M_backend_send _ -> incr backend_send
        | Chaos.M_shaped_send _ -> incr shaped
        | Chaos.M_half_pair _ -> incr half
        | _ -> ())
      p.Chaos.actions
  done;
  Alcotest.(check bool) "dead links injected" true (!dead > 0);
  Alcotest.(check bool) "slowed links injected" true (!slow > 0);
  Alcotest.(check bool) "links healed" true (!heal > 0);
  Alcotest.(check bool) "both routing policies exercised" true
    (!adaptive > 0 && !adaptive < mesh_seeds);
  Alcotest.(check bool) "multi-VC setups generated" true
    (!multi_vc > 0 && !multi_vc < mesh_seeds);
  Alcotest.(check bool) "finite and unlimited credit setups generated" true
    (!finite > 0 && !unlimited > 0);
  Alcotest.(check bool) "credit squeezes generated" true (!squeeze > 0);
  Alcotest.(check bool) "squeezes shrink to tight pools" true
    (!squeeze_tight > 0);
  Alcotest.(check bool) "rogue-tenant probes generated" true (!rogue > 0);
  Alcotest.(check bool) "revocations generated" true (!revoke > 0);
  Alcotest.(check bool) "authorized backend sends generated" true
    (!backend_send > 0);
  Alcotest.(check bool) "shaped sends generated" true (!shaped > 0);
  Alcotest.(check bool) "half-initiated pairs generated" true (!half > 0);
  Alcotest.(check bool) "both crossings exercised" true
    (!flit > 0 && !flit < mesh_seeds)

(* ---------- determinism of the generator ---------- *)

let test_plan_deterministic () =
  for seed = 0 to 63 do
    let a = Chaos.plan_of_seed Chaos.node seed
    and b = Chaos.plan_of_seed Chaos.node seed in
    if a <> b then Alcotest.failf "node plan %d is not deterministic" seed;
    let ma = Chaos.plan_of_seed Chaos.mesh seed
    and mb = Chaos.plan_of_seed Chaos.mesh seed in
    if ma <> mb then Alcotest.failf "mesh plan %d is not deterministic" seed
  done

let () =
  Alcotest.run "chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "plan generation is deterministic" `Quick
            test_plan_deterministic;
          Alcotest.test_case
            (Printf.sprintf "%d-seed sweep: no I1-I4 violation" sweep_seeds)
            `Quick test_clean_sweep;
          Alcotest.test_case "mutation: skipping I1 is detected" `Quick
            (test_node_mutation `I1);
          Alcotest.test_case "mutation: skipping I2 is detected" `Quick
            (test_node_mutation `I2);
          Alcotest.test_case "mutation: skipping I3 is detected" `Quick
            (test_node_mutation `I3);
          Alcotest.test_case "mutation: skipping I4 is detected" `Quick
            (test_node_mutation `I4);
          Alcotest.test_case
            (Printf.sprintf
               "%d-seed mesh traffic sweep: no I1-I5/N1-N2/F1 violation"
               mesh_seeds)
            `Quick test_mesh_sweep;
          Alcotest.test_case
            "mesh mutation: skipping I1 is detected and replays" `Quick
            (test_mesh_mutation `I1);
          Alcotest.test_case
            "mesh mutation: skipping I2 is detected and replays" `Quick
            (test_mesh_mutation `I2);
          Alcotest.test_case
            "mesh mutation: skipping I4 is detected and replays" `Quick
            (test_mesh_mutation `I4);
          Alcotest.test_case
            "mesh mutation: leaking a credit is detected (N1)" `Quick
            (test_mesh_mutation `N1);
          Alcotest.test_case
            "mesh mutation: a stuck VC arbiter is detected (N2)" `Quick
            (test_mesh_mutation `N2);
          Alcotest.test_case
            "mesh mutation: skipping the owner check leaks across tenants \
             (P1 -> I5)"
            `Quick
            (test_mesh_mutation ~expect:"I5" `P1);
          Alcotest.test_case
            "mesh mutation: a stale datapath entry survives teardown \
             (P2 -> I5)"
            `Quick
            (test_mesh_mutation ~expect:"I5" `P2);
          Alcotest.test_case
            "mesh mutation: skipping the per-element page clamp reaches \
             unauthorized frames (D1 -> I4)"
            `Quick
            (test_mesh_mutation ~expect:"I4" `D1);
          Alcotest.test_case
            "mesh mutation: a flit leaked on a dead-link retry breaks \
             conservation (F1)"
            `Quick
            (test_mesh_mutation `F1);
          Alcotest.test_case
            "mesh mutation: an arbiter double grant breaks the credit \
             identity (F2 -> F1)"
            `Quick
            (test_mesh_mutation ~expect:"F1" `F2);
          Alcotest.test_case "mesh generator covers faults + policies" `Quick
            test_mesh_generator_coverage;
        ] );
    ]
