(** Conservative parallel discrete-event kernel.

    The model is split into shards, each an {!Engine}. Execution
    advances in grid-aligned windows of [lookahead] cycles: every round
    the kernel takes the global minimum pending timestamp [g], opens
    the window [[g - g mod lookahead, g - g mod lookahead + lookahead)],
    and each shard's engine fires its events strictly before the
    window's end independently — safe because a cross-shard {!post}
    must carry at least [lookahead] cycles of delay, so nothing sent
    during a window can land before the next window's base (the classic
    conservative-PDES argument, with the mesh link latency as the
    natural lookahead). When {!run} returns, every shard's clock is at
    the last window's end.

    A shard's events are {!Engine.event}s: each receives its shard's
    engine, reads the clock with {!Engine.now} and schedules local work
    through {!Engine} directly; lanes, {!Engine.step_to}, categories and
    the engine's profiler and metrics all hold inside a shard. Only
    cross-shard messages go through {!post}. They buffer in per-(src,
    dst) outboxes and merge into the destination engine before the next
    window ({!Engine.schedule_keyed}), source shard by source shard,
    each outbox in post order; so messages with equal (time, key) fire
    in (source shard, per-source post) order. That order — and hence
    every downstream event order — depends only on the window sequence
    and each shard's own deterministic execution, never on how many
    OCaml domains the shards are packed onto: {!run} with any [domains]
    value produces bit-identical results. The domains meet at one
    barrier per window. *)

type t

val create : ?lookahead:int -> shards:int -> unit -> t
(** [create ~shards ()] is a kernel with [shards] fresh engines and the
    given lookahead (default 1). Raises [Invalid_argument] unless both
    are positive. *)

val engine : t -> shard:int -> Engine.t
(** [engine t ~shard] is the shard's engine, for set-up (scheduling the
    first events) and for reading its clock, profiler and metrics. Use
    it from outside {!run}, or from an event of that shard. *)

val schedule : t -> shard:int -> ?key:int -> delay:int -> Engine.event -> unit
(** [schedule t ~shard ~delay ev] schedules [ev] on the shard's engine
    [delay] cycles after its clock, ordered by [key] (default 0) among
    same-time events, as {!Engine.schedule_keyed}. Raises
    [Invalid_argument] on a negative delay. *)

val post :
  t -> src:int -> dst:int -> key:int -> delay:int -> Engine.event -> unit
(** [post t ~src ~dst ~key ~delay ev] sends a timestamped message from
    the shard currently executing ([src]) to [dst], to fire at [src]'s
    clock + [delay] with [key] as in {!Engine.schedule_keyed}.
    Cross-shard delays must be at least the kernel's lookahead (raises
    [Invalid_argument] otherwise); [src = dst] schedules on [src]'s
    engine directly, with no minimum. Before {!run} starts, posts go
    straight to the destination engine. *)

val run : ?domains:int -> ?until:int -> t -> unit
(** [run t] executes events until every engine is idle, or (with
    [until]) until no pending event is below [until] — exclusive, so
    events at [until] stay queued and a later [run] resumes. With
    [domains > 1] the shards are partitioned into that many contiguous
    blocks, one OCaml domain each (capped at the shard count); results
    are bit-identical to [domains = 1]. An exception raised by an
    event stops every domain at the end of that window and is
    re-raised after the domains join. Not reentrant. *)

val events_executed : t -> int
(** Total events fired across all shards since {!create}: the sum of
    the engines' [engine.events_fired], the numerator of E17's
    events/sec rate. *)

val messages_posted : t -> int
(** Cross-shard messages buffered through outboxes during {!run}. *)

val windows_run : t -> int
(** Conservative windows executed (one barrier round each). *)

val pending_events : t -> int
(** Events currently queued across all shards. *)
