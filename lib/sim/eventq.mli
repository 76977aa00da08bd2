(** Priority queue of timestamped events.

    A binary min-heap keyed by (time, key, sequence number). The
    sequence number guarantees that two events scheduled for the same
    cycle (and same key) fire in insertion order, which keeps every
    simulation run deterministic. The optional key gives callers a
    second ordering slot between time and insertion order; the sharded
    engine uses it to order same-time messages by model identity rather
    than by arrival. Callers that omit it (all keys equal) get pure
    FIFO ties.

    The heap is a struct of arrays: each position is four plain ints
    (time, key, sequence number, payload slot) in one flat [int array],
    so a sift moves ints and never runs the write barrier. Payloads sit
    in a slot-indexed array with a stack of free slots; a payload is
    written once at {!push} and its slot is overwritten with a shared
    filler when it is popped or {!clear}ed, so the queue never keeps
    dead event closures (and whatever they capture — engines, buffers,
    metrics) reachable. Each entry also carries an unordered int tag.
    Once the arrays have grown, {!add}, {!push_reserved}, {!min_time},
    {!min_tag} and {!pop_payload} allocate nothing, which is what the
    event loops use. *)

type 'a t
(** Mutable event queue holding payloads of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty queue. *)

val is_empty : 'a t -> bool
(** [is_empty q] is [true] iff no event is pending. *)

val length : 'a t -> int
(** [length q] is the number of pending events. *)

val push : 'a t -> time:int -> ?key:int -> ?tag:int -> 'a -> unit
(** [push q ~time ?key ?tag payload] schedules [payload] at cycle
    [time]. [key] (default 0) breaks time ties before insertion order.
    [tag] (default 0) rides along with the payload and takes no part in
    the order; {!min_tag} reads it back. Raises [Invalid_argument] if
    [time < 0]. *)

val add : 'a t -> time:int -> key:int -> tag:int -> 'a -> unit
(** [add] is {!push} with every argument given: no option to build. *)

val reserve : 'a t -> int
(** [reserve q] takes the sequence number the next {!push} would have
    used and returns it; the queue counts it as used. {!push_reserved}
    later enqueues an event under it. *)

val push_reserved : 'a t -> time:int -> seq:int -> tag:int -> 'a -> unit
(** [push_reserved q ~time ~seq ~tag payload] is the {!push} with key 0
    that took [seq] at its {!reserve}: the event pops in that push's
    place, however late it enters the queue, provided it enters before
    anything ordered after it pops. Each reserved number is pushed at
    most once. Raises [Invalid_argument] if [time < 0] or [seq] was
    never reserved. *)

val peek_time : 'a t -> int option
(** [peek_time q] is the firing time of the earliest event, if any. *)

val min_time : 'a t -> int
(** [min_time q] is the firing time of the earliest event, or [max_int]
    when [q] is empty. An event may itself be due at [max_int], so test
    {!is_empty} where that matters. Allocates nothing. *)

val min_tag : 'a t -> int
(** [min_tag q] is the tag the earliest event was pushed with. Allocates
    nothing. Raises [Invalid_argument] if [q] is empty. *)

val pop_payload : 'a t -> 'a
(** [pop_payload q] removes the earliest event and returns its payload;
    read its time with {!min_time} first. Same order and slot release
    as {!pop}, without allocating. Raises [Invalid_argument] if [q] is
    empty. *)

val pop : 'a t -> (int * 'a) option
(** [pop q] removes and returns the earliest event as [(time, payload)].
    Ties fire in (key, insertion) order. The payload's slot is
    cleared, so the returned payload is the only remaining reference. *)

val clear : 'a t -> unit
(** [clear q] discards all pending events and drops every reference to
    their payloads. *)
