(** Discrete-event simulation engine with a cycle clock.

    One engine drives one experiment. Simulated "hardware" schedules
    events in the future; simulated "software" (plain OCaml callbacks)
    advances the clock by charging cycle costs with {!advance}, which
    pumps any events that become due. This interleaves asynchronous DMA
    completion with CPU-side polling exactly as on a real machine,
    without threads. *)

type t

type event = t -> unit
(** An event receives the engine so it can schedule follow-up events. *)

module Profiler = Udma_obs.Profiler

val create : ?mhz:int -> unit -> t
(** [create ?mhz ()] is a fresh engine at cycle 0. [mhz] (default 120)
    is the modelled clock frequency, used only to convert cycles to
    wall-clock units in reports. *)

val now : t -> int
(** [now t] is the current cycle. *)

val ns_of_cycles : t -> int -> float
(** [ns_of_cycles t c] converts a cycle count to nanoseconds. *)

val us_of_cycles : t -> int -> float
(** [us_of_cycles t c] converts a cycle count to microseconds. *)

val schedule : t -> ?cat:Profiler.category -> delay:int -> event -> unit
(** [schedule t ~delay ev] fires [ev] [delay] cycles from now.
    Raises [Invalid_argument] if [delay < 0]. When [cat] is given, the
    cycles the clock jumps to reach the event are charged to that
    profiler category (a DMA completion attributes its burst to [Dma],
    not to whoever happened to be polling). *)

val schedule_at : t -> ?cat:Profiler.category -> time:int -> event -> unit
(** [schedule_at t ~time ev] fires [ev] at absolute cycle [time]
    (clamped to [now] if in the past). [cat] as in {!schedule}. *)

val schedule_keyed : t -> key:int -> time:int -> event -> unit
(** [schedule_keyed t ~key ~time ev] is [schedule_at t ~time ev], but
    events due at the same cycle fire in [key] order before scheduling
    order ({!schedule} and {!schedule_at} use key 0). A non-optional
    [key] allocates nothing. *)

type lane
(** A FIFO of future firings of one event and category, for an event
    that is scheduled over and over at times that never decrease (a
    link's departures, a receive DMA's deposits). Only the earliest
    firing sits in the event queue, so a backlog of [n] costs no heap
    depth. *)

val lane : t -> ?cat:Profiler.category -> event -> lane
(** [lane t ?cat ev] is an empty lane of [t] firing [ev] under [cat]
    (as in {!schedule}). *)

val lane_last : lane -> int
(** [lane_last l] is the time of [l]'s latest queued firing, or -1
    when it has none: a link on a lane is busy until then. *)

val lane_at : lane -> time:int -> unit
(** [lane_at l ~time] is [schedule_at t ?cat ~time ev] for the lane's
    [ev] and [cat], exactly: the firing keeps the place among all
    events that call would have given it, and the clock, the profiler,
    [engine.scheduled], [engine.events_fired] and {!pending_events} see
    the same. A time earlier than the lane's last firing becomes an
    ordinary event. Once the lane's ring has grown, allocates
    nothing. *)

val boundary : t -> time:int -> int
(** [boundary t ~time] stands for [schedule_at t ~time ignore]: an
    uncategorised event that does nothing, under the seq that call
    would have taken, which it returns. It costs no event: the engine
    keeps the (time, seq) in a calendar, and everything the no-op event
    would have shown comes out the same — the clock and the profiler
    (an event with a category charges the cycles up to a boundary
    ordered before it to the current category, as the no-op event's
    firing would have), {!next_event_time}, {!pending_events},
    {!step_to}, {!wait_for} and where {!run_until_idle} ends. It counts
    in neither [engine.scheduled] nor [engine.events_fired]. [time] is
    clamped to {!now}. A boundary is ordered as an event of key 0;
    against a {!schedule_keyed} event of another key at the same cycle
    it is ordered by seq alone. *)

val passed : t -> time:int -> seq:int -> bool
(** [passed t ~time ~seq] is whether an event of key 0 at [time] under
    [seq] would have fired by now: it is ordered before the event now
    firing or, between pumps, before where the last pump stopped.
    After [run_until t c] every event at [c] reserved so far has fired
    (unless an event's nested advance carried the clock past [c]);
    after [run_before t c] none at [c] has. A caller that keeps
    counters a boundary would have moved settles them with this. *)

val advance : t -> int -> unit
(** [advance t cost] charges [cost] cycles of CPU work: runs every event
    due at or before [now + cost], then sets the clock to [now + cost].
    Events that fire may schedule further events; those are honoured if
    still within the window. *)

val run_until : t -> int -> unit
(** [run_until t time] runs due events and moves the clock to [time]
    (no-op if [time <= now]). *)

val run_before : t -> int -> unit
(** [run_before t time] fires every event due strictly before [time],
    then moves the clock to [time] (one window of {!Shard}). Unlike
    [run_until t (time - 1)], it fires an event due at the clock. *)

val advance_in : t -> Profiler.category -> int -> unit
(** [advance_in t cat cost] is [with_category t cat (fun () -> advance
    t cost)] without the closure: it sets the profiler's category,
    advances, and restores the previous category, also when an event
    raises. *)

val next_event_time : t -> int
(** The time of the earliest scheduled event, or [max_int] when none
    is. Nothing can change simulated state before it except the
    caller's own actions. *)

val run_until_idle : t -> unit
(** [run_until_idle t] drains the event queue entirely, advancing the
    clock to the last event's time. *)

val step_to : t -> int -> bool
(** [step_to t time] lets an event that would reschedule itself at
    [time] run on in place instead. When no event is due at or before
    [time] and the running {!run_until} (or {!advance}, {!wait_for},
    {!run_until_idle}, {!run_before}) would still fire an event at
    [time], it moves the clock to [time] exactly as an uncategorised
    event firing there would — the same profiler charge — and returns
    [true]; the caller then does that event's work itself. Otherwise,
    and always outside a running event loop, it returns [false] and
    changes nothing. It counts nothing in [engine.scheduled] or
    [engine.events_fired]. *)

val wait_for : t -> ?poll_cost:int -> ?max_polls:int -> (unit -> bool) -> int
(** [wait_for t cond] repeatedly charges [poll_cost] cycles (default 2)
    until [cond ()] holds or the queue is idle and [cond] still fails,
    or [max_polls] (default 10_000_000) is exhausted; returns the number
    of polls performed. Raises [Failure] if [cond] can no longer become
    true (queue idle) or the poll budget is exhausted. *)

val pending_events : t -> int
(** Number of scheduled, not-yet-fired events. *)

(** {1 Observability}

    The engine owns a {!Udma_obs.Profiler.t} that every clock mutation
    is charged through, so category totals always sum to {!now}, and a
    {!Udma_obs.Metrics.t} it publishes scheduling counters into
    ([engine.scheduled], [engine.events_fired]) on read: the first is
    a plain count, the second that count less the scheduled events
    still pending ({!pending_events} without the boundaries). *)

val profiler : t -> Profiler.t

val profile : t -> Profiler.totals
(** Snapshot of the cycle-attribution totals so far. *)

val metrics : t -> Udma_obs.Metrics.t

val with_category : t -> Profiler.category -> (unit -> 'a) -> 'a
(** [with_category t cat f] runs [f] with the profiler's current
    category set to [cat], restoring the previous category afterwards
    (exception-safe). Cycles charged by [f] — including polls inside
    {!wait_for} — attribute to [cat] unless an event's own category
    overrides them. *)
