(** E16: application workloads — sharded KV, halo exchange and bursty
    RPC over the user-level DMA fabric. *)

val e16 : Experiment.experiment
