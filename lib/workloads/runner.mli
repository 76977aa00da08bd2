(** The experiment registry (DESIGN.md §4 has the index). Each
    experiment is one {!Experiment.experiment} record, declared in its
    group's module; every [bin/shrimp_sim.exe] experiment command,
    [all] and its [--check] anchor gate derive from this list. *)

val experiments : Experiment.experiment list
(** The experiment registry, E1 to E18 in order. *)

val all_reports :
  ?quick:bool -> ?seed:int -> unit -> Udma_obs.Report.t list
(** Every experiment of the registry, in order, with every parameter
    at its default, or at its quick value when [quick] (default
    false). [seed] (default 42) feeds the randomized experiments. Each
    report carries its own cycle breakdown; the breakdown's sum equals
    the total simulated cycles across every engine that experiment
    created. *)

val anchors : Udma_obs.Report.anchor list
(** Every experiment's anchors, in registry order. *)
