(** Experiment reports: typed rows + metadata + cycle breakdown.

    Every experiment produces one [Report.t]; the paper-style table
    ({!print}) and the machine-readable JSON ({!to_json}) derive from
    the same value, so they can never drift. A list of reports wraps
    into one JSON document with {!bench_json} — the same schema whether
    it comes from [shrimp_sim all --json] (whose per-experiment digests
    [test/golden/all.md5] pins) or from [shrimp_sim <exp> --json]. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type row = (string * value) list
(** Field name -> value; fields appear in the table in [columns]
    order. Rows may carry extra fields that are JSON-only. *)

type t = {
  id : string;  (** Stable identifier, e.g. ["e1_figure8"]. *)
  title : string;  (** Human heading, e.g. ["E1 / Figure 8 — ..."]. *)
  meta : (string * value) list;
      (** Experiment parameters (sizes, trials, seed, mhz...). *)
  columns : (string * string) list;
      (** (field, header) in display order; the table shows exactly
          these. *)
  rows : row list;
  breakdown : Profiler.totals option;
      (** Cycle attribution over the whole experiment; its sum equals
          the total simulated cycles across the experiment's
          engines. *)
}

val make :
  id:string ->
  title:string ->
  ?meta:(string * value) list ->
  columns:(string * string) list ->
  ?breakdown:Profiler.totals ->
  row list ->
  t

val print : ?oc:out_channel -> t -> unit
(** Render the paper-style table: title, column headers, one line per
    row (numbers right-aligned), then the cycle breakdown when
    present. *)

val to_json : t -> Json.t
(** [{"id", "title", "meta", "rows": [...], "breakdown": {...}}]. *)

val bench_json :
  ?meta:(string * value) list -> t list -> Json.t
(** The full benchmark document:
    [{"schema": "udma-bench/1", "meta": {...}, "experiments": [...]}]. *)

(** {1 Anchors}

    An anchor names one number in a udma-bench/1 document: a field of
    one experiment's meta, or of the first row whose fields match
    every [field = value] pair of a row selector. The anchor gate
    ([shrimp_sim all --check]) reads both the committed baseline and
    a fresh run (serialized with {!bench_json} and re-parsed) through
    {!anchor_value}, so the two sides can never be extracted
    differently. *)

type selector =
  | Meta  (** the experiment's [meta] object *)
  | Row of (string * string) list
      (** the first row matching every pair: a string field compares
          verbatim, a numeric one by value (["512"] matches [512] and
          [512.0]) *)

type anchor = {
  name : string;  (** e.g. ["e1.pct_of_max@512B"] *)
  report : string;  (** experiment id, e.g. ["e1_figure8"] *)
  select : selector;
  field : string;
}

val anchor_value : Json.t -> anchor -> float option
(** The anchor's number in a udma-bench/1 document; [None] when the
    experiment, row or field is missing or the field is not a
    number. *)

val check :
  tolerance:float ->
  anchor list ->
  baseline:Json.t ->
  Json.t ->
  (string list, string list) result
(** [check ~tolerance anchors ~baseline current] compares every
    anchor's value in [current] against [baseline]: relative drift
    (absolute when the baseline value is 0) must be at most
    [tolerance]; [0.0] demands equality. One line per anchor, in
    order; [Ok] when every anchor resolves on both sides and is in
    tolerance, [Error] otherwise. *)
