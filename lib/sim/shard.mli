(** Conservative parallel discrete-event kernel.

    The model is split into shards, each with its own {!Eventq} and
    clock. Execution advances in grid-aligned windows of [lookahead]
    cycles: every round the kernel takes the global minimum pending
    timestamp [g], opens the window
    [[g - g mod lookahead, g - g mod lookahead + lookahead)], and each
    shard drains its local events inside it independently — safe
    because a cross-shard {!post} must carry at least [lookahead]
    cycles of delay, so nothing sent during a window can land before
    the next window's base (the classic conservative-PDES argument,
    with the mesh link latency as the natural lookahead).

    Cross-shard posts buffer in per-(src, dst) outboxes and merge into
    the destination queue before the next window: source shard by
    source shard, each outbox in post order. The queue orders by
    (time, key, push order), so messages with equal (time, key) fire
    in (source shard, per-source post) order. That order — and hence
    every downstream event order — depends only on the window sequence
    and each shard's own deterministic execution, never on how many
    OCaml domains the shards are packed onto: {!run} with any
    [domains] value produces bit-identical results. The domains meet
    at one barrier per window. *)

type t

val create : ?lookahead:int -> shards:int -> unit -> t
(** [create ~shards ()] is a kernel with [shards] empty shards and the
    given lookahead (default 1). Raises [Invalid_argument] unless both
    are positive. *)

val now : t -> shard:int -> int
(** [now t ~shard] is the shard's clock: the timestamp of the event it
    is executing, or the last window horizon when idle. *)

val schedule_at : t -> shard:int -> time:int -> ?key:int -> (unit -> unit) -> unit
(** Schedule a local event at an absolute time. Must only be called
    from outside {!run} or from an event executing on [shard] itself.
    [key] orders same-time events before insertion order. Raises
    [Invalid_argument] if [time] is before the shard clock. *)

val schedule : t -> shard:int -> ?key:int -> delay:int -> (unit -> unit) -> unit
(** [schedule t ~shard ~delay fn] is {!schedule_at} at
    [now t ~shard + delay]. *)

val post :
  t -> src:int -> dst:int -> ?key:int -> delay:int -> (unit -> unit) -> unit
(** [post t ~src ~dst ~delay fn] sends a timestamped message from the
    shard currently executing ([src]) to [dst], to fire at
    [now t ~shard:src + delay]. Cross-shard delays must be at least
    the kernel's lookahead (raises [Invalid_argument] otherwise); [src = dst]
    degenerates to {!schedule} with no minimum. Before {!run} starts,
    posts go straight to the destination queue. *)

val run : ?domains:int -> ?until:int -> t -> unit
(** [run t] executes events until every queue is empty, or (with
    [until]) until no pending event is below [until] — exclusive, so
    events at [until] stay queued and a later [run] resumes. With
    [domains > 1] the shards are partitioned into that many contiguous
    blocks, one OCaml domain each (capped at the shard count); results
    are bit-identical to [domains = 1]. An exception raised by an
    event stops every domain at the end of that window and is
    re-raised after the domains join. Not reentrant. *)

val events_executed : t -> int
(** Total events executed across all shards since {!create} — the
    numerator of E17's events/sec rate. *)

val messages_posted : t -> int
(** Cross-shard messages buffered through outboxes during {!run}. *)

val windows_run : t -> int
(** Conservative windows executed (one barrier round each). *)

val pending_events : t -> int
(** Events currently queued across all shards. *)
