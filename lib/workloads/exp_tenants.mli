(** E14: multi-tenant protection — proxy vs IOMMU vs capability
    backends under tenant churn. *)

val e14 : Experiment.experiment
