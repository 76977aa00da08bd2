(** The flit crossing: a cycle-by-cycle wormhole network over a
    [Mesh.t] (DESIGN §17). [Router] creates one for a [`Flit] crossing
    with link contention and hands it every packet bound for another
    node. *)

type t

val create : Mesh.t -> t
(** Materialise every directed link of the mesh, its per-VC input
    FIFOs and the per-node injection FIFOs, and register the flit
    counters on the mesh engine's registry (published on read). *)

val send : t -> Packet.t -> unit
(** Decompose a packet for another node into a worm of
    [ceil(words / flit_words)] flits, queue it on the source node's
    injection FIFO, ready [base_cycles] from now, and make sure the
    flit clock ticks then. *)

val fault_changed : t -> from_node:int -> to_node:int -> unit
(** A fault was set on that link: its wire occupancy follows the
    fault from the next grant on. *)

val settle_all : t -> unit
(** Count the stall cycles sleeping wires skipped up to the last tick,
    so link stats read now are exact. *)

val check_flits : t -> string option
(** F1, flit conservation (see [Router.check_flits]). *)

val flit_stats : t -> Mesh.Types.flit_stat list
(** Every (link, VC) input FIFO, in (from, to, vc) order. *)

val flit_counts : t -> int * int * int
(** [(injected, delivered, buffered)] flits. *)

val flit_vc_occupancy : t -> (float * int) array
(** Per VC, the mean buffered flits per active flit-cycle and the
    maximum. *)

(** {1 Introspection for tests} *)

val census : t -> int * int
(** [(wire visits, ejection-link visits)] the flit clock has made: the
    host work behind the same grants, never published. *)

val worms : t -> int * int
(** [(live, slots)]: worms in flight and the size of the worm table. *)

val worm : t -> int -> (int * int) option
(** [Some (flits, src)] for the live worm with id [w], [None] for a
    free id. *)

type fifo = {
  fi_node : int;  (** the node of an injection FIFO; -1 for an input FIFO *)
  fi_slots : int;  (** ring size, in entries *)
  fi_len : int;  (** flits held *)
  fi_entries : (int * int * int) list;
      (** (worm, index of the first flit, flits), front first *)
}

val fifos : t -> fifo list
(** Every node's injection FIFO in node order, then every input FIFO in
    (from, to, vc) order. *)
