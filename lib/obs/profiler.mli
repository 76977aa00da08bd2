(** Cycle-attribution profiler.

    Charges every simulated cycle to exactly one category, mirroring
    the paper's §8 cost accounting (user references vs. kernel work vs.
    DMA bursts vs. wire time). The simulation engine owns one profiler
    and routes {e all} clock mutations through {!charge}, so the
    invariant [sum (totals t) = Engine.now] holds by construction —
    a qcheck property enforces it. *)

type category = User_ref | Kernel | Dma | Wire | Device | Idle

val categories : category list
(** All categories, in report order. *)

val category_name : category -> string
(** Lower-case stable name ("user_ref", "kernel", ...). *)

type t

val create : unit -> t
(** Fresh profiler: zero cycles everywhere, current category {!Idle}. *)

val current : t -> category

val set_current : t -> category -> unit
(** Switch the category future cycles are charged to. Switching costs
    nothing — only {!charge} moves totals. *)

val charge : t -> ?cat:category -> int -> unit
(** [charge t n] adds [n] cycles to the current category ([cat]
    overrides it for this charge only). Negative [n] is a programming
    error and raises [Invalid_argument]. *)

val total : t -> category -> int

(** {1 Snapshots} — immutable totals for report breakdowns. *)

type totals
(** Cycle count per category; a pure value. *)

val snapshot : t -> totals

val zero : totals

val add_totals : totals -> totals -> totals
(** Pointwise sum — used to merge breakdowns from experiments that run
    several engines. *)

val to_list : totals -> (string * int) list
(** [(category_name, cycles)] in report order, all six categories. *)

val sum : totals -> int

val to_json : totals -> Json.t
(** Object with the six category fields plus ["total"]. *)
