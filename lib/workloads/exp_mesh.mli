(** E11–E13 and E18: the mesh backplane under multi-node traffic —
    saturation, routing policy, virtual channels and the flit-level
    wire. *)

val e11 : Experiment.experiment
val e12 : Experiment.experiment
val e13 : Experiment.experiment
val e18 : Experiment.experiment
