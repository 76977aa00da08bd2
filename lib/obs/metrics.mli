(** Metrics registry: named counters, gauges and fixed-bucket cycle
    histograms.

    One registry per simulated machine; [Engine], [Udma_engine], [Vm],
    [Scheduler], [Dma_engine] and [Network_interface] all publish into
    it. Counters keep the familiar [Stats] increment API so existing
    call sites port mechanically; histograms replace ad-hoc float
    series for latency-shaped data. *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
(** Bump a counter by one, creating it at 0. *)

val add : t -> string -> int -> unit

val set : t -> string -> int -> unit
(** Publish an absolute value — used by hardware models that keep
    internal counters and mirror them into the registry. *)

val get : t -> string -> int
(** Counter value, 0 if never touched. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {2 Counter handles} — for hot paths. A handle names one counter
    and resolves that name on its first bump, then keeps the counter's
    cell, so a bump costs no lookup. Bumping by handle is exactly
    {!incr}/{!add} by name: handles on one name share one counter, and
    a handle that is never bumped leaves the registry untouched. A
    handle stays valid across {!reset} (it re-resolves). *)

type counter

val counter : t -> string -> counter

val bump : counter -> unit
(** [bump c] is [incr t name]. *)

val bump_by : counter -> int -> unit
(** [bump_by c n] is [add t name n]. *)

(** {1 Gauges} — last-write-wins instantaneous values. *)

val set_gauge : t -> string -> float -> unit

val gauge : t -> string -> float option

val gauges : t -> (string * float) list

(** {1 Histograms}

    Fixed upper-edge buckets. A value [v] lands in the first bucket
    whose edge satisfies [v <= edge]; values above the last edge land
    in the overflow bucket. Default edges are powers of two from 1 to
    65536 — a good ladder for cycle counts. *)

val default_buckets : int list

val observe : t -> ?buckets:int list -> string -> int -> unit
(** Record one value into histogram [name], creating the histogram on
    first use ([buckets] only takes effect then; edges must be
    strictly increasing, checked at creation). *)

type sampler
(** A histogram handle: the {!observe} counterpart of {!counter}. *)

val sampler : t -> ?buckets:int list -> string -> sampler

val sample : sampler -> int -> unit
(** [sample s v] is [observe t ?buckets name v]. *)

type histogram = {
  buckets : (int * int) list;  (** (upper edge, count), ascending. *)
  overflow : int;  (** Count of values above the last edge. *)
  count : int;
  sum : int;
}

val histogram : t -> string -> histogram option

val percentile : histogram -> float -> int option
(** [percentile h p] is the smallest bucket upper edge covering [p]
    percent of the observations ([None] for an empty histogram; one
    past the last edge if the percentile falls in the overflow
    bucket). An upper-bound estimate — resolution is the bucket
    ladder. Raises [Invalid_argument] unless [0 < p <= 100]. *)

val histograms : t -> (string * histogram) list

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)

val reset : t -> unit
