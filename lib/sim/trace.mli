(** Typed event tracing.

    A trace is a bounded ring of {!Udma_obs.Event.t} values plus an
    optional list of sinks. Recording allocates one constructor and
    never formats a string; rendering happens only when a human or a
    JSON sink asks. Disabled traces with no sinks cost one branch.

    A process-wide {e global sink} supports [--trace] on CLI
    subcommands whose machines are constructed internally: installing
    it makes every trace in the process stream events to it, even
    traces created with [~enabled:false]. *)

module Event = Udma_obs.Event

type t

val create : ?capacity:int -> enabled:bool -> unit -> t
(** [create ~enabled ()] keeps the last [capacity] (default 4096)
    events in the ring when [enabled]; otherwise the ring stays empty
    (sinks still fire). *)

val active : t -> bool
(** Something will consume a record: the ring is enabled, a sink is
    attached, or the global sink is installed. Emitters may use this
    to skip building event payloads. *)

val record : t -> time:int -> Event.subsystem -> Event.payload -> unit
(** Append an event (no-op when {!active} is false). *)

val note : t -> time:int -> Event.subsystem -> string -> unit
(** Convenience for free-form [Note] events. *)

val add_sink : t -> Event.sink -> unit
(** Attach a sink; it sees every subsequent event on this trace. *)

val set_global_sink : Event.sink option -> unit
(** Install (or clear) the process-wide sink fed by {e all} traces. *)

val events : t -> Event.t list
(** Ring contents, oldest first (at most [capacity]). *)

val matching : t -> (Event.t -> bool) -> Event.t list
(** [matching t pred] keeps ring events satisfying [pred], oldest
    first. *)
