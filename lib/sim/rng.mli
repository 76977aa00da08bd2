(** Deterministic pseudo-random numbers for workload generation.

    A small splittable xorshift generator so that every experiment is
    reproducible from a seed and independent streams can be derived for
    independent traffic sources. *)

type t

val create : int -> t
(** [create seed] is a generator; equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and perturbs [t]. *)

val int : t -> int -> int
(** [int t bound] is in [0, bound). Raises [Invalid_argument] if
    [bound <= 0].

    {b Bias note:} this draws a 62-bit value and reduces it with
    [mod bound], which over-weights the low residues whenever [bound]
    does not divide 2^62. The bias is at most [bound]/2^62 per value —
    negligible for simulation bounds (< 2^-40 for bounds up to a
    million) but real. It is kept as-is deliberately: every committed
    anchor (BENCH_baseline knees, the all.md5 digests, chaos replays) was
    produced by this exact stream, and changing the reduction would
    shift every seeded experiment. New code, including all sharded-
    engine paths, should use {!int_unbiased}. *)

val int_unbiased : t -> int -> int
(** [int_unbiased t bound] is uniform in [0, bound) with no modulo
    bias, via rejection sampling over the 62-bit raw draw (expected
    < 2 draws per call). Consumes a variable number of raw values, so
    it is {b not} stream-compatible with {!int}; use it only on paths
    without committed anchors (the sharded engine does). Raises
    [Invalid_argument] if [bound <= 0]. *)

val substream : int -> int -> t
(** [substream seed index] is an independent generator derived from
    [(seed, index)]. Unlike {!split}, it does not advance any parent
    generator, so stream [index] is the same no matter how many other
    substreams exist or in what order they are created — the property
    the sharded engine needs for results that are independent of the
    shard partition. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** [pick t arr] is a uniformly chosen element.
    Raises [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
