(* Every front end derives from this list: [all_reports] (hence
   [shrimp_sim all], its [--check] anchor gate and the committed
   baselines) concatenates it in order, and bin/shrimp_sim.ml builds a
   name + eN alias command pair per entry, with one option per
   declared parameter. Adding an experiment here is the whole
   registration. *)
let experiments =
  [
    Exp_send.e1; Exp_send.e2; Exp_send.e3; Exp_send.e4; Exp_send.e5;
    Exp_kernel.e6; Exp_kernel.e7; Exp_kernel.e8; Exp_kernel.e9; Exp_kernel.e10;
    Exp_mesh.e11; Exp_mesh.e12; Exp_mesh.e13; Exp_tenants.e14; Exp_shapes.e15;
    Exp_apps.e16; Exp_simscale.e17; Exp_mesh.e18;
  ]

let all_reports ?(quick = false) ?(seed = 42) () =
  List.concat_map
    (fun e -> (Param.resolve ~quick e.Experiment.exp_run) ~quick ~seed)
    experiments

let anchors = List.concat_map (fun e -> e.Experiment.exp_anchors) experiments
