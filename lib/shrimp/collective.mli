(** User-level collective operations over deliberate update.

    SHRIMP's point (paper §1, §8) is that protected user-level
    communication makes fine-grain coordination cheap enough to build
    real primitives on. This module builds three classics on top of
    {!Messaging} channels — no kernel involvement after setup:

    - {b barrier}: all-to-one flag gather plus one-to-all release;
    - {b broadcast}: root streams its buffer to every other rank;
    - {b all-gather}: every rank's contribution is delivered into every
      other rank's receive window.

    A [group] owns one channel per ordered pair of ranks, carved out of
    disjoint NIPT regions. *)

type group

val group_size : group -> int

val create_group :
  System.t -> members:(int * Udma_os.Proc.t) list -> ?first_index:int ->
  ?pages_per_channel:int -> unit -> group
(** [create_group sys ~members ()] wires channels for every ordered
    pair. [members] are (node id, process) pairs, rank = list position.
    NIPT/device-proxy pages from [first_index] (default 0) are consumed
    in order; [pages_per_channel] defaults to 1. Raises
    [Invalid_argument] for fewer than 2 members or if the device-proxy
    region cannot hold all the channels. *)

val barrier : group -> rank:int -> unit
(** Execute rank [rank]'s part of the barrier. Because the simulation
    is single-threaded, call this once for every rank in any order;
    the final call completes the barrier for everyone. Counts one
    barrier per full round. *)

val barriers_completed : group -> int

val broadcast :
  group -> root:int -> src_vaddr:int -> nbytes:int -> unit
(** Stream [nbytes] (4-byte multiple, within channel capacity) from
    [root]'s buffer to every other rank; blocks until every rank has
    observed its copy. *)

val bcast_recv_vaddr : group -> root:int -> rank:int -> int
(** Where rank [rank] receives [root]'s broadcasts. Raises
    [Invalid_argument] when [rank = root]. *)

val all_gather :
  group -> contributions:(int * int) array -> unit
(** [all_gather g ~contributions] where [contributions.(rank) =
    (src_vaddr, nbytes)]: every rank sends its contribution to every
    other rank; blocks until all deliveries are observed. *)

val gather_recv_vaddr : group -> from_rank:int -> rank:int -> int
(** Where rank [rank] received [from_rank]'s contribution. *)
