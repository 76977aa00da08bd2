(** Priority queue of timestamped events.

    A binary min-heap keyed by (time, key, sequence number). The
    sequence number guarantees that two events scheduled for the same
    cycle (and same key) fire in insertion order, which keeps every
    simulation run deterministic. The optional key gives callers a
    second ordering slot between time and insertion order; the sharded
    engine uses it to make cross-shard merges independent of shard
    count. Legacy callers omit it (all keys equal → pure FIFO ties,
    the historical order).

    The heap is a plain array of immutable entries, sifted by moving a
    hole (one write per level). Every slot a pop or {!clear} vacates is
    overwritten with one shared filler entry, so the queue never keeps
    dead event closures (and whatever they capture — engines, buffers,
    metrics) reachable. {!push} allocates only the entry; {!min_time}
    and {!pop_payload} allocate nothing, which is what the event loops
    use. *)

type 'a t
(** Mutable event queue holding payloads of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty queue. *)

val is_empty : 'a t -> bool
(** [is_empty q] is [true] iff no event is pending. *)

val length : 'a t -> int
(** [length q] is the number of pending events. *)

val push : 'a t -> time:int -> ?key:int -> 'a -> unit
(** [push q ~time ?key payload] schedules [payload] at cycle [time].
    [key] (default 0) breaks time ties before insertion order.
    Raises [Invalid_argument] if [time < 0]. *)

val peek_time : 'a t -> int option
(** [peek_time q] is the firing time of the earliest event, if any. *)

val min_time : 'a t -> int
(** [min_time q] is the firing time of the earliest event, or [max_int]
    when [q] is empty. An event may itself be due at [max_int], so test
    {!is_empty} where that matters. Allocates nothing. *)

val pop_payload : 'a t -> 'a
(** [pop_payload q] removes the earliest event and returns its payload;
    read its time with {!min_time} first. Same order and slot release
    as {!pop}, without allocating. Raises [Invalid_argument] if [q] is
    empty. *)

val pop : 'a t -> (int * 'a) option
(** [pop q] removes and returns the earliest event as [(time, payload)].
    Ties fire in (key, insertion) order. The vacated heap slot is
    cleared, so the returned payload is the only remaining reference. *)

val clear : 'a t -> unit
(** [clear q] discards all pending events and drops every reference to
    their payloads. *)
