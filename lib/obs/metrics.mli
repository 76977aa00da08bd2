(** Metrics registry: named counters, gauges and fixed-bucket cycle
    histograms.

    One registry per simulated machine; [Engine], [Udma_engine], [Vm],
    [Scheduler], [Dma_engine] and [Network_interface] all publish into
    it. Counters are bumped by name or through pre-resolved handles;
    histograms hold latency-shaped data. Exact percentiles over a raw
    sample use {!nearest_rank}. A model counts each event once: it
    bumps a handle and reads the count back with {!read}, or, on a
    path as hot as the flit crossing, counts in plain fields of its own
    and publishes them through {!on_read} — never both. *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
(** Bump a counter by one, creating it at 0. *)

val add : t -> string -> int -> unit

val set : t -> string -> int -> unit
(** Overwrite a counter with an absolute value, creating it. *)

val get : t -> string -> int
(** Counter value, 0 if never touched. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val on_read : t -> (unit -> unit) -> unit
(** [on_read t flush] registers a read hook: {!get}, {!counters},
    {!histogram}, {!histograms}, {!to_json} and {!reset} run every
    hook first, in registration order. A hot path that keeps its
    counts in plain [int] fields publishes the deltas since its last
    flush through its handles here ({!bump_by}, {!sample_n}), so every
    reader, mid-run or at the end, sees exactly the names and values
    eager bumps would have left; pending deltas are flushed before a
    {!reset} clears them. A hook must only bump and sample, never
    read. *)

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

val read : counter -> int
(** [read c] is [get t name]: the count, 0 if never bumped. Like
    {!get} it creates nothing, so a hardware model can keep its counts
    in the registry alone and read them back through its handles. *)

(** {1 Gauges} — last-write-wins instantaneous values. *)

val set_gauge : t -> string -> float -> unit

val gauge : t -> string -> float option

(** {1 Histograms}

    Fixed upper-edge buckets. A value [v] lands in the first bucket
    whose edge satisfies [v <= edge]; values above the last edge land
    in the overflow bucket. Default edges are powers of two from 1 to
    65536 — a good ladder for cycle counts. *)

val observe : t -> ?buckets:int list -> string -> int -> unit
(** Record one value into histogram [name], creating the histogram on
    first use ([buckets] only takes effect then; edges must be
    strictly increasing, checked at creation). *)

type sampler
(** A histogram handle: the {!observe} counterpart of {!counter}. *)

val sampler : t -> ?buckets:int list -> string -> sampler

val sample : sampler -> int -> unit
(** [sample s v] is [observe t ?buckets name v]. *)

val sample_n : sampler -> int -> int -> unit
(** [sample_n s v n] is [n] calls of [sample s v] in one step (nothing
    when [n <= 0]). *)

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

val nearest_rank : int array -> float -> int
(** [nearest_rank sorted p] is the exact nearest-rank percentile of an
    ascending sample: the value at 1-based rank [ceil (p/100 * n)],
    clamped to the sample; [0] on the empty sample. It reports an
    actual observation, not a bucket edge, so on small samples the
    tail coarsens to the maximum (p999 is the sample max whenever
    [n < 1000]). Every exact latency percentile in the tree (traffic,
    tenants, application SLOs) uses this one function; when the
    histogram's edges enumerate every distinct sample, {!percentile}
    returns the same value. *)

val histograms : t -> (string * histogram) list

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)

val reset : t -> unit
