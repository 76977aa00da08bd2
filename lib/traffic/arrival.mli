(** Arrival processes for the load generator.

    Open-loop processes inject at a configured rate regardless of
    delivery (the saturation-sweep workhorse); the closed-loop process
    models [clients] request/response clients that wait for their
    message to be delivered, think, and send again. All are
    deterministic given a {!Udma_sim.Rng} stream. *)

type t =
  | Poisson of { per_kcycle : float }
      (** Memoryless arrivals, [per_kcycle] messages per 1000 cycles
          per source. *)
  | Periodic of { per_kcycle : float }
      (** Deterministic-rate arrivals at the same mean spacing. *)
  | Closed of { clients : int; think_cycles : int }
      (** N clients per mesh (round-robin over nodes), each waiting
          for delivery then thinking [think_cycles] before re-sending. *)

val open_loop : t -> bool

val validate : t -> (unit, string) result
(** [Error msg] for an open loop whose rate is not > 0 (NaN included)
    or a closed loop with [clients < 1]. *)

val next_gap : t -> Udma_sim.Rng.t -> int
(** Next inter-arrival gap in cycles (at least 1). Raises
    [Invalid_argument] for {!Closed} (clients pace themselves) or a
    non-positive rate. *)
