(* The chaos harness as a test: a clean sweep over many seeds must
   find no violation. A sweep that does find one fails only after
   checking that the failure is a usable bug report: it replays, shrinks
   and is reported under its invariant's name. The planted bugs of
   test/mutants/ must each make a sweep fail that way, and a toy
   scenario below drives the same harness on an unpatched tree. *)

module Oracle = Udma_check.Oracle
module Chaos = Udma_check.Chaos

let sweep_seeds = 512
let mesh_seeds = 64

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let inv_name (f : _ Chaos.failure) =
  Udma_os.Machine.invariant_name f.Chaos.violation.Oracle.invariant

(* A failing run must replay identically: same step, same detail. *)
let check_replay sc (f : _ Chaos.failure) =
  match Chaos.run_plan sc f.Chaos.plan with
  | Chaos.Pass ->
      Alcotest.failf "seed %d failed once but replayed clean"
        (sc.Chaos.seed_of f.Chaos.plan.Chaos.setup)
  | Chaos.Fail f' ->
      Alcotest.(check int) "replay stops at the same step" f.Chaos.step
        f'.Chaos.step;
      Alcotest.(check string) "replay reports the same violation"
        f.Chaos.violation.Oracle.detail f'.Chaos.violation.Oracle.detail

(* The first failure replays, shrinks to at most [max_shrunk] actions
   that still fail at their last step (the last action or the final
   drain) under the same invariant, replays again, and its printed
   repro recipe names the invariant. Returns the shrunk failure and
   its report. *)
let max_shrunk = 8

let shrunk_report sc f =
  check_replay sc f;
  let s = Chaos.shrink sc f in
  Alcotest.(check string) "shrinking preserves the invariant" (inv_name f)
    (inv_name s);
  let n = List.length s.Chaos.plan.Chaos.actions in
  if n > max_shrunk then
    Alcotest.failf "shrunk schedule has %d actions (more than %d)" n max_shrunk;
  if s.Chaos.step < n - 1 then
    Alcotest.failf "shrunk schedule fails at step %d of %d" s.Chaos.step n;
  check_replay sc s;
  let report = Chaos.report sc s in
  if not (contains report (inv_name s ^ " violated")) then
    Alcotest.failf "report does not name %s:\n%s" (inv_name s) report;
  (s, report)

(* ---------- the sweeps: no violations in a correct system ---------- *)

let test_sweep sc ~seeds () =
  match Chaos.sweep sc ~seeds () with
  | [] -> ()
  | f :: _ as failures ->
      let _, report = shrunk_report sc f in
      Alcotest.failf "%d of %d %sseeds violated an invariant; first, shrunk:\n%s"
        (List.length failures) seeds sc.Chaos.prefix report

(* ---------- the harness itself, on a toy scenario ---------- *)

(* The state is one flag: [Bad] sets it, breaking the toy invariant,
   and the check reports it from then on. [Tick] is harmless and
   [Crash] raises an exception the harness must absorb. *)
type toy = Tick | Crash | Bad

let toy_detail = "a Bad action ran"

let toy : (int, toy) Chaos.scenario =
  { Chaos.prefix = "toy ";
    gen =
      (fun seed ->
        let rng = Udma_sim.Rng.create seed in
        ( seed,
          fun () ->
            match Udma_sim.Rng.int rng 60 with 0 -> Bad | 1 | 2 -> Crash | _ -> Tick ));
    seed_of = Fun.id;
    build =
      (fun ~trace:_ _ ->
        let bad = ref false in
        { Chaos.apply =
            (function Tick -> () | Crash -> failwith "toy crash" | Bad -> bad := true);
          check =
            (fun () ->
              if !bad then Some { Oracle.invariant = `I3; detail = toy_detail }
              else None);
          drain = ignore;
          events = (fun () -> []) });
    pp_setup = Format.pp_print_int;
    pp_action =
      (fun ppf a ->
        Format.pp_print_string ppf
          (match a with Tick -> "tick" | Crash -> "crash" | Bad -> "bad")) }

let rec index_of x i = function
  | [] -> None
  | y :: rest -> if y = x then Some i else index_of x (i + 1) rest

let test_toy_harness () =
  let seeds = 16 in
  let failing =
    List.filter
      (fun seed ->
        List.mem Bad (Chaos.plan_of_seed toy seed).Chaos.actions)
      (List.init seeds Fun.id)
  in
  if failing = [] || List.length failing = seeds then
    Alcotest.failf "toy seeds 0..%d should both pass and fail" (seeds - 1);
  Alcotest.(check (list int)) "the sweep fails exactly the seeds with a Bad"
    failing
    (List.map
       (fun f -> f.Chaos.plan.Chaos.setup)
       (Chaos.sweep toy ~seeds ()));
  match Chaos.first_failure toy ~seeds with
  | None -> Alcotest.fail "first_failure missed the toy bug"
  | Some f ->
      Alcotest.(check int) "first_failure finds the first failing seed"
        (List.hd failing) f.Chaos.plan.Chaos.setup;
      Alcotest.(check (option int)) "the failure stops at the first Bad"
        (index_of Bad 0 f.Chaos.plan.Chaos.actions) (Some f.Chaos.step);
      Alcotest.(check string) "the violation is the check's"
        toy_detail f.Chaos.violation.Oracle.detail;
      let s, report = shrunk_report toy f in
      Alcotest.(check bool) "shrinking leaves the one Bad action" true
        (s.Chaos.plan.Chaos.actions = [ Bad ] && s.Chaos.step = 0);
      Alcotest.(check bool) "the report names the seed" true
        (contains report
           (Printf.sprintf "toy chaos failure: seed %d, 1-step schedule"
              f.Chaos.plan.Chaos.setup))

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

(* ---------- the mesh replay header ---------- *)

(* A seed's header names the router it runs, which the scenario builds
   from [Chaos.mesh_router_config]: a flit seed runs with contention,
   dimension-order routing and finite credits whatever its raw draws,
   and its header says so. Of the 45 flit seeds in 0-63 and 4096-4159,
   13 draw contention off (seed 34 among them, with adaptive routing
   too), 34 adaptive routing and 15 unlimited credits. *)
let test_mesh_header_names_router () =
  let module Router = Udma_shrimp.Router in
  let flit_seeds = ref 0 and forced = ref 0 in
  List.iter
    (fun seed ->
      let setup = (Chaos.plan_of_seed Chaos.mesh seed).Chaos.setup in
      let header = Format.asprintf "%a" Chaos.mesh.Chaos.pp_setup setup in
      let r = Chaos.mesh_router_config setup in
      let expect =
        [ Printf.sprintf "contention=%b" r.Router.link_contention;
          (match r.Router.routing with
          | `Minimal_adaptive -> "routing=adaptive"
          | `Dimension_order -> "routing=dimension-order");
          Printf.sprintf "vcs=%d" r.Router.vc_count;
          (match r.Router.rx_credits with
          | None -> "rx=unlimited"
          | Some n -> Printf.sprintf "rx=%d " n) ]
      in
      List.iter
        (fun part ->
          if not (contains header part) then
            Alcotest.failf "seed %d: header %S lacks %S" seed header part)
        expect;
      if setup.Chaos.mesh_crossing = `Flit then begin
        incr flit_seeds;
        if (not setup.Chaos.contention) || setup.Chaos.adaptive
           || setup.Chaos.mesh_credits = None
        then incr forced;
        (match Router.validate ~nodes:setup.Chaos.mesh_nodes r with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d: flit router rejected: %s" seed e);
        List.iter
          (fun part ->
            if not (contains header part) then
              Alcotest.failf "flit seed %d: header %S lacks %S" seed header part)
          [ "contention=true"; "routing=dimension-order"; "crossing=flit(" ];
        if contains header "rx=unlimited" then
          Alcotest.failf "flit seed %d: header %S says unlimited credits" seed header
      end)
    (List.init 64 Fun.id @ List.init 64 (fun i -> 4096 + i));
  let h34 =
    Format.asprintf "%a" Chaos.mesh.Chaos.pp_setup
      (Chaos.plan_of_seed Chaos.mesh 34).Chaos.setup
  in
  if not (contains h34 "contention=true routing=dimension-order") then
    Alcotest.failf "seed 34: header %S" h34;
  if !flit_seeds = 0 || !forced = 0 then
    Alcotest.failf "%d flit seeds, %d with a forced setting" !flit_seeds !forced

let () =
  Alcotest.run "chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "plan generation is deterministic" `Quick
            test_plan_deterministic;
          Alcotest.test_case
            (Printf.sprintf "%d-seed sweep: no I1-I4 violation" sweep_seeds)
            `Quick
            (test_sweep Chaos.node ~seeds:sweep_seeds);
          Alcotest.test_case
            (Printf.sprintf
               "%d-seed mesh traffic sweep: no I1-I5/N1-N2/F1 violation"
               mesh_seeds)
            `Quick
            (test_sweep Chaos.mesh ~seeds:mesh_seeds);
          Alcotest.test_case "mesh generator covers faults + policies" `Quick
            test_mesh_generator_coverage;
          Alcotest.test_case "toy scenario: found, replayed, shrunk, reported"
            `Quick test_toy_harness;
          Alcotest.test_case "mesh header names the router a seed runs" `Quick
            test_mesh_header_names_router;
        ] );
    ]
