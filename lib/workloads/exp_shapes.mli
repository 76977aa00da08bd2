(** E15: bandwidth vs transfer shape — contiguous, strided and
    scatter-gather initiations at equal total bytes. *)

val e15 : Experiment.experiment
