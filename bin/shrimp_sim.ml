(* Command-line driver: run any single experiment from the paper's
   evaluation with parameter overrides, or all of them. Every
   experiment subcommand takes the same observability flags: --json
   (one udma-bench/1 document), --out FILE, --trace (typed JSON-lines
   event stream on stderr) and --seed; `all --check FILE` is the
   anchor regression gate. *)

module Runner = Udma_workloads.Runner
module Report = Udma_obs.Report
module Json = Udma_obs.Json
module Event = Udma_obs.Event
module Metrics = Udma_obs.Metrics
module Trace = Udma_sim.Trace
open Cmdliner

(* ------------------------------------------------------------------ *)
(* common flags                                                        *)
(* ------------------------------------------------------------------ *)

type common = { json : bool; out : string option; trace : bool; seed : int }

let common_term =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the result as a udma-bench/1 JSON document instead of the \
             paper-style table.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the output to $(docv) instead of stdout.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Stream every typed trace event (proxy references, state-machine \
             transitions, DMA bursts, packets, faults...) as JSON lines on \
             stderr while the experiment runs.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for the randomized experiments.")
  in
  Term.(
    const (fun json out trace seed -> { json; out; trace; seed })
    $ json $ out $ trace $ seed)

let with_out c f =
  match c.out with
  | None -> f stdout
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let doc_meta c =
  [ ("generator", Report.Str "shrimp_sim"); ("seed", Report.Int c.seed) ]

(* Run [mk] (which builds the reports) with the global trace sink
   installed when asked, then render: one schema for --json, the
   derived table otherwise. Returns the reports. *)
let emit_reports c mk =
  if c.trace then Trace.set_global_sink (Some (Event.jsonl_sink stderr));
  let reports = mk () in
  Trace.set_global_sink None;
  if c.json then
    with_out c (fun oc ->
        output_string oc
          (Json.to_string ~indent:2 (Report.bench_json ~meta:(doc_meta c) reports));
        output_char oc '\n')
  else with_out c (fun oc -> List.iter (Report.print ~oc) reports);
  reports

(* ------------------------------------------------------------------ *)
(* experiment subcommands                                              *)
(*                                                                     *)
(* Every experiment command is derived from its Runner.experiments     *)
(* record: one option per declared parameter, plus the common flags    *)
(* and --quick, which moves every parameter the user did not set to    *)
(* its quick value.                                                    *)
(* ------------------------------------------------------------------ *)

module Param = Udma_workloads.Param

let rec conv : type a. a Param.kind -> a Arg.conv = function
  | Param.Int -> Arg.int
  | Param.Float -> Arg.float
  | Param.Flag -> Arg.bool
  | Param.List k -> Arg.list (conv k)
  | Param.Option k -> Arg.some (conv k)
  | Param.Enum l -> Arg.enum l
  | Param.Parsed (parse, print) ->
      Arg.conv
        ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
          fun ppf v -> Format.pp_print_string ppf (print v) )

(* One option per parameter. A term yields the parameter's value once
   [quick] is known: the user's value, else the quick value or the
   default. A value the declaration rejects exits 2 with its message. *)
let rec params_term : type a. string -> a Param.args -> (quick:bool -> a) Term.t =
 fun cmd_name -> function
  | Param.Pure x -> Term.const (fun ~quick:_ -> x)
  | Param.Map (f, a) ->
      Term.(const (fun g ~quick -> f (g ~quick)) $ params_term cmd_name a)
  | Param.Both (a, b) ->
      Term.(
        const (fun ga gb ~quick ->
            let x = ga ~quick in
            (x, gb ~quick))
        $ params_term cmd_name a $ params_term cmd_name b)
  | Param.Param p ->
      let c = conv p.Param.kind in
      let show v = Format.asprintf "%a" (Arg.conv_printer c) v in
      let doc =
        if p.Param.quick = p.Param.default then p.Param.doc
        else
          Printf.sprintf "%s $(b,--quick) uses %s." p.Param.doc
            (show p.Param.quick)
      in
      let arg_info = Arg.info [ p.Param.flag ] ~docv:p.Param.docv ~doc in
      let given : a option Term.t =
        match p.Param.kind with
        | Param.Flag ->
            Term.(
              const (fun b -> if b then Some true else None)
              $ Arg.(value & flag arg_info))
        | _ ->
            Arg.(value & opt (some ~none:(show p.Param.default) c) None arg_info)
      in
      let resolve given ~quick =
        let v =
          match given with
          | Some v -> v
          | None -> if quick then p.Param.quick else p.Param.default
        in
        match p.Param.check v with
        | None -> v
        | Some msg ->
            prerr_endline (Printf.sprintf "%s: --%s %s" cmd_name p.Param.flag msg);
            exit 2
      in
      Term.(const resolve $ given)

let quick_term ~doc = Arg.(value & flag & info [ "quick" ] ~doc)

(* A sweep whose flags combine into a configuration the model rejects
   stops before simulating anything, like a rejected flag value: exit 2
   with one line. Any other exception is a bug and surfaces as such. *)
let experiment_term (e : Udma_workloads.Experiment.experiment) =
  let run c quick params =
    let f = params ~quick in
    try ignore (emit_reports c (fun () -> f ~quick ~seed:c.seed))
    with Udma_traffic.Sweep.Invalid_config msg ->
      prerr_endline (Printf.sprintf "%s: %s" e.exp_name msg);
      exit 2
  in
  Term.(
    const run $ common_term
    $ quick_term ~doc:"Use the small deterministic CI parameter set."
    $ params_term e.exp_name e.exp_run)

(* Each experiment registers under its paper-section name and an
   eN alias, so `shrimp_sim e1 --json` works as EXPERIMENTS.md
   documents. *)
let experiment_cmds =
  List.concat_map
    (fun (e : Udma_workloads.Experiment.experiment) ->
      let term = experiment_term e in
      let doc = e.exp_doc in
      [
        Cmd.v (Cmd.info e.exp_name ~doc) term;
        Cmd.v
          (Cmd.info e.exp_alias
             ~doc:(Printf.sprintf "Alias for $(b,%s): %s" e.exp_name doc))
          term;
      ])
    Runner.experiments

(* The anchor gate of `all --check FILE`. The baseline is read before
   the run: a file that cannot be read or parsed, or that holds a run of
   the other mode (its meta "quick" against --quick), exits 2. The
   fresh run is serialized as the udma-bench/1 document it would be
   written as and re-parsed, so both sides are read by
   Report.anchor_value; any anchor drifting beyond +/-2 % exits 1. A
   passing report goes to stdout (stderr when stdout carries the JSON
   document), a failing one to stderr. *)
let read_baseline ~quick path =
  let mode q = if q then "quick" else "full" in
  match Json.of_file path with
  | Ok doc when Json.path [ "meta"; "quick" ] doc = Some (Json.Bool (not quick))
    ->
      Printf.eprintf "all --check: %s holds a %s-mode run, this is a %s-mode run\n"
        path (mode (not quick)) (mode quick);
      exit 2
  | Ok doc -> doc
  | Error msg ->
      prerr_endline ("all --check: " ^ msg);
      exit 2

let check_anchors c ~path baseline reports =
  let current =
    match Json.parse (Json.to_string (Report.bench_json reports)) with
    | Ok doc -> doc
    | Error msg -> failwith ("bench_json does not reparse: " ^ msg)
  in
  let passed, lines =
    match Report.check ~tolerance:0.02 Runner.anchors ~baseline current with
    | Ok lines -> (true, lines)
    | Error lines -> (false, lines)
  in
  let oc = if passed && not (c.json && c.out = None) then stdout else stderr in
  Printf.fprintf oc "anchor check vs %s (tolerance +/-2%%)\n" path;
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  if passed then output_string oc "anchor check passed.\n"
  else begin
    output_string oc
      "anchor check FAILED: regenerate the baseline (see EXPERIMENTS.md) if \
       the change is intended.\n";
    exit 1
  end

let all_cmd =
  let check =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Diff every anchor declared in the experiment registry between \
             this run and the baseline document $(docv); exit 1 on >±2% \
             drift, 2 if $(docv) cannot be read or holds a run of the \
             other mode (its meta field \"quick\" against $(b,--quick)).")
  in
  let run c quick check =
    let baseline = Option.map (fun p -> (p, read_baseline ~quick p)) check in
    let reports = emit_reports c (fun () -> Runner.all_reports ~quick ~seed:c.seed ()) in
    Option.iter (fun (path, b) -> check_anchors c ~path b reports) baseline
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Run every experiment: the paper's whole evaluation, E1 to E18 in \
          order.")
    Term.(
      const run $ common_term
      $ quick_term
          ~doc:
            "Small deterministic parameters (what the committed \
             BENCH_baseline.json holds)."
      $ check)

(* ------------------------------------------------------------------ *)
(* trace walkthrough                                                   *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let run c =
    (* one traced deliberate-update send on a 2-node system *)
    let module System = Udma_shrimp.System in
    let module Messaging = Udma_shrimp.Messaging in
    let module M = Udma_os.Machine in
    let module Scheduler = Udma_os.Scheduler in
    let module Kernel = Udma_os.Kernel in
    if c.trace then Trace.set_global_sink (Some (Event.jsonl_sink stderr));
    let config =
      { System.default_config with
        System.machine = { M.default_config with M.trace_enabled = true } }
    in
    let sys = System.create ~config ~nodes:2 () in
    let snd = System.node sys 0 in
    let sp = Scheduler.spawn snd.System.machine ~name:"sender" in
    let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"receiver" in
    let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
    let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
    Kernel.write_user snd.System.machine sp ~vaddr:buf (Bytes.make 256 'x');
    let cpu_s = Kernel.user_cpu snd.System.machine sp in
    let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
    (match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes:256 () with
    | Ok seq -> (
        match Messaging.recv_wait ch cpu_r ~seq () with
        | Ok _ -> ()
        | Error msg -> prerr_endline msg)
    | Error e -> Format.eprintf "%a@." Messaging.pp_send_error e);
    System.run_until_idle sys;
    Trace.set_global_sink None;
    let events = Trace.events snd.System.machine.M.trace in
    let counters = Metrics.counters snd.System.machine.M.metrics in
    if c.json then
      with_out c (fun oc ->
          let doc =
            Json.Obj
              [
                ("schema", Json.Str "udma-trace/1");
                ("events", Json.List (List.map Event.to_json events));
                ( "counters",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
              ]
          in
          output_string oc (Json.to_string ~indent:2 doc);
          output_char oc '\n')
    else
      with_out c (fun oc ->
          Printf.fprintf oc
            "--- sender-node trace (256 B deliberate-update send) ---\n";
          List.iter
            (fun ev ->
              Printf.fprintf oc "%8d  %s\n" ev.Event.time (Event.render ev))
            events;
          Printf.fprintf oc "--- sender-node kernel counters ---\n";
          List.iter
            (fun (name, v) -> Printf.fprintf oc "%-28s %d\n" name v)
            counters)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one traced deliberate-update send and dump the hardware \
             and kernel event trace.")
    Term.(const run $ common_term)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let module Chaos = Udma_check.Chaos in
  let seeds =
    Arg.(
      value & opt int 256
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let start =
    Arg.(value & opt int 0 & info [ "start" ] ~docv:"SEED" ~doc:"First seed.")
  in
  let steps =
    Arg.(
      value & opt int 40
      & info [ "steps" ] ~docv:"N" ~doc:"Actions per seed's schedule.")
  in
  let replay =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:"Replay one seed and print its full schedule (and trace).")
  in
  let mutate =
    let inv_conv =
      Arg.enum
        [
          ("i1", `I1); ("i2", `I2); ("i3", `I3); ("i4", `I4);
          ("n1", `N1); ("n2", `N2); ("f1", `F1); ("f2", `F2);
          ("p1", `P1); ("p2", `P2); ("d1", `D1);
        ]
    in
    Arg.(
      value
      & opt (some inv_conv) None
      & info [ "mutate" ] ~docv:"INVARIANT"
          ~doc:
            "Disable the kernel action maintaining this invariant \
             (deliberate bug); the sweep is then expected to find \
             violations, and the first is reported shrunk. $(b,n1) \
             (credit leak) and $(b,n2) (stuck arbiter) plant router \
             bugs, $(b,f1) (flit leaked on a dead-link retry) and \
             $(b,f2) (arbiter double-grant past the credit check) \
             plant flit-crossing bugs the F1 conservation oracle must \
             catch, $(b,p1) (owner check skipped) and $(b,p2) (stale \
             datapath entry after teardown) plant protection-backend \
             bugs the I5 oracle must catch, and $(b,d1) (per-element \
             page clamp skipped on shaped transfers) plants a \
             DMA-frontend bug the I4 oracle must catch; all seven are \
             meant for $(b,--mesh) sweeps.")
  in
  let mesh =
    Arg.(
      value & flag
      & info [ "mesh" ]
          ~doc:
            "Sweep multi-node mesh schedules instead of single-machine \
             ones: random sends, link faults, credit squeezes, rogue \
             tenants and import-slot revocations on a 4, 6 or 9 node \
             mesh with 1-4 VCs (a third of the seeds on the flit-level \
             wormhole crossing), checking I1-I4 and the I5 isolation \
             oracle on every node (proxy, IOMMU and capability \
             backends) and the router's credit (N1), arbitration (N2) \
             and flit-conservation (F1) oracles after every action.")
  in
  let run c seeds start steps replay mutate mesh =
    if c.trace then Trace.set_global_sink (Some (Event.jsonl_sink stderr));
    let skip_invariant = mutate in
    let finish () = Trace.set_global_sink None in
    (* The single-machine and mesh sweeps differ only in their scenario
       and in the wording of the clean and planted-bug lines. *)
    let chaos sc ~clean ~planted =
      let name = sc.Chaos.prefix ^ "chaos sweep" in
      let report f =
        Chaos.report sc ?skip_invariant (Chaos.shrink sc ?skip_invariant f)
      in
      with_out c (fun oc ->
          let ppf = Format.formatter_of_out_channel oc in
          match replay with
          | Some seed -> (
              let plan = Chaos.plan_of_seed sc ~steps seed in
              Format.fprintf ppf "replaying %sseed %d: %a@." sc.Chaos.prefix
                seed sc.Chaos.pp_setup plan.Chaos.setup;
              List.iteri
                (fun i a ->
                  Format.fprintf ppf "  %2d. %a@." i sc.Chaos.pp_action a)
                plan.Chaos.actions;
              match Chaos.run_plan sc ?skip_invariant plan with
              | Chaos.Pass ->
                  Format.fprintf ppf "no invariant violation.@.";
                  finish ();
                  exit 0
              | Chaos.Fail f ->
                  output_string oc (report f);
                  finish ();
                  exit (if mutate = None then 1 else 0))
          | None -> (
              match
                (Chaos.sweep sc ?skip_invariant ~steps ~start ~seeds (), mutate)
              with
              | [], None ->
                  Format.fprintf ppf
                    "%s: %d seeds x %d steps, no %s violation.@." name seeds
                    steps clean;
                  finish ()
              | [], Some inv ->
                  Format.fprintf ppf
                    "%s with %a disabled found no violation in %d seeds — \
                     the oracles missed a planted bug!@."
                    name Udma_os.Machine.pp_invariant inv seeds;
                  finish ();
                  exit 1
              | (f :: _ as failures), _ ->
                  Format.fprintf ppf
                    "%s: %d of %d seeds violated an invariant%s@." name
                    (List.length failures) seeds
                    (match mutate with
                    | Some _ ->
                        Printf.sprintf " (expected: %s was planted)" planted
                    | None -> "");
                  output_string oc (report f);
                  finish ();
                  if mutate = None then exit 1))
    in
    if mesh then chaos Chaos.mesh ~clean:"I1-I5/N1-N2/F1" ~planted:"a bug"
    else chaos Chaos.node ~clean:"I1-I4" ~planted:"a kernel bug"
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Randomized fault-injection sweep checking the paper's OS \
          invariants I1-I4 after every step; failing seeds are replayed \
          deterministically and shrunk to a minimal schedule. With \
          $(b,--mesh), sweeps multi-node schedules that also exercise the \
          I5 isolation oracle on every node and the router's \
          virtual-channel credit (N1), arbitration (N2) and \
          flit-conservation (F1) oracles.")
    Term.(
      const run $ common_term $ seeds $ start $ steps $ replay $ mutate $ mesh)

let () =
  let info =
    Cmd.info "shrimp_sim" ~version:"1.0.0"
      ~doc:
        "Experiments from 'Protected, User-Level DMA for the SHRIMP Network \
         Interface' (HPCA 1996), reproduced in simulation."
  in
  exit
    (Cmd.eval
       (Cmd.group info (experiment_cmds @ [ trace_cmd; chaos_cmd; all_cmd ])))
