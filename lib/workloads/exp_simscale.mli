(** E17: the sharded engine's throughput vs worker domains. *)

val e17 : Experiment.experiment
