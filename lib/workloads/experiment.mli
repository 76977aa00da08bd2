(** What the experiment modules share: the record each experiment is
    declared as (DESIGN.md §4), the engine probe behind every report's
    cycle breakdown, report-value shorthands, [Param] checks, and the
    rigs that more than one experiment group builds. *)

module Report := Udma_obs.Report
module M := Udma_os.Machine

type experiment = {
  exp_name : string;  (** command name, e.g. ["figure8"] *)
  exp_alias : string;  (** short alias, e.g. ["e1"] *)
  exp_doc : string;  (** one-line description *)
  exp_run : (quick:bool -> seed:int -> Report.t list) Param.args;
      (** the declared parameters and the one function that runs the
          experiment on them *)
  exp_anchors : Report.anchor list;
      (** the numbers CI holds to the committed [BENCH_baseline.json],
          read from the [--quick] run *)
}

val anchor : string -> string -> Report.selector -> string -> Report.anchor
(** [anchor name report select field] *)

type probe
(** Several experiments build a fresh machine (and engine) per data
    point; the probe collects every engine so the report's cycle
    breakdown spans the whole experiment, not just the last engine. *)

val probe : unit -> probe
val watch : probe -> Udma_sim.Engine.t -> unit
val breakdown : probe -> Udma_obs.Profiler.totals
val vi : int -> Report.value
val vf : float -> Report.value
val vs : string -> Report.value
val vb : bool -> Report.value

val v_opt : ('a -> Report.value) -> string -> 'a option -> Report.value
(** An optional value, or [none] when absent. *)

val positive : int -> string option
(** The [Param] check for a count: a count of zero would divide by zero
    or build a model that refuses it, so the flag is rejected instead. *)

val all_positive : int list -> string option

val within : int -> int -> int -> string option
(** [within lo hi] is the [Param] check for a value in [lo..hi]. *)

val ok_or_fail : (Format.formatter -> 'e -> unit) -> ('a, 'e) result -> 'a
(** The value, or [Failure] with the error printed by [pp]: the rigs
    below never refuse what an experiment asks of them. *)

val pattern_buffer : M.t -> Udma_os.Proc.t -> bytes:int -> int -> int
(** [pattern_buffer m proc ~bytes fill] allocates [bytes] bytes to [proc]
    and writes their first [fill] bytes counting up from 0, modulo 256. *)

val buffer_rig :
  ?mode:Udma.Udma_engine.mode -> ?mem_pages:int -> ?i3_policy:M.i3_policy ->
  probe -> M.t * Udma.Udma_engine.t * Udma_dma.Device.port
(** One machine (default 128 frames, basic UDMA) on an engine the probe
    watches, with a buffer device on all its device-proxy pages. *)

val grant_dev : M.t -> Udma_os.Proc.t -> pages:int -> unit
(** Map the first [pages] device-proxy pages into [proc], writable. *)

val node_pair :
  ?mode:Udma.Udma_engine.mode -> probe -> Udma_shrimp.System.t
  * Udma_shrimp.System.node * Udma_os.Proc.t
  * Udma_shrimp.System.node * Udma_os.Proc.t
(** Two SHRIMP nodes (basic UDMA by default) on an engine the probe
    watches, with one process on each: [(sys, node 0, its process,
    node 1, its process)]. *)

val cost_row : Udma_os.Cost_model.t -> string -> int -> Report.row
(** One [label]/[cycles]/[us] row of the E2 / E8 cost tables. *)

val cost_columns : (string * string) list
