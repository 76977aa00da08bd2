(** The mesh service model: a k×k SHRIMP mesh driven message by
    message, for the load generator (E11–E13, E17's calibration, E18)
    and the closed-loop applications (E16).

    A fabric spawns one process per node of a {!Udma_shrimp.System}
    and establishes a {!Udma_shrimp.Messaging} channel (export + NIPT
    + proxy grant) for every directed (src, dst) pair a client will
    use. Per-message initiation costs are calibrated with {e real}
    warm user-level sends — contiguous
    ({!Udma_shrimp.Messaging.send_nowait}) and strided
    ({!Udma_shrimp.Messaging.send_strided}, the shaped path) — so the
    service model charges exactly what the protected two-reference (or
    three-reference, shaped) sequence costs on this cost model.

    All nodes share one simulated clock, so concurrent sends cannot
    each block it for their full initiation the way a single
    foreground send does. Instead each node's CPU is a single server:
    {!post} enqueues a message on the source node's CPU queue, the CPU
    is occupied [cost] cycles per message (its calibrated initiation
    cost, plus any application service time), then the payload is
    handed to the NI with {!Udma_shrimp.Messaging.inject} and takes
    the full simulated path — outgoing FIFO, wire, router (VCs,
    credits, faults, adaptive routing, either crossing), receive-side
    DMA deposit into the importer's pinned buffer. Delivery callbacks
    fire at deposit time, so end-to-end latencies include source CPU
    queueing, credit stalls and link contention.

    Because replies land in the client's own exported receive buffer
    (deliberate update into client-mapped memory), the read path is
    zero-copy: the client polls cached loads on its own pages; no
    kernel, no interrupt, no receive-side copy. *)

type config = {
  nodes : int;  (** 2..64, complete mesh rows ({!Udma_shrimp.Router.valid_nodes}) *)
  vc_count : int;  (** virtual channels per directed link, 1..4 *)
  rx_credits : int option;  (** deposit slots per (link, VC); [None] = unlimited *)
  routing : Udma_shrimp.Router.routing;
  link_per_word : int;  (** >= 1; >= 2 puts the bottleneck on the links *)
  link_contention : bool;
  seed : int;
}

val default_config : config
(** 16 nodes, 1 VC, 8 credits, dimension-order, [link_per_word] 1,
    contention on, seed 42. *)

val validate : config -> (unit, string) result
(** [Error msg] for a config outside the documented ranges: the
    fabric's own limits first (2..64 nodes, [link_per_word >= 1]),
    then {!Udma_shrimp.Router.validate} on the router config {!create}
    would build. *)

type t

val attach : Udma_shrimp.System.t -> seed:int -> pairs:(int * int) list -> t
(** Drive a system the caller built, with any router config (the flit
    crossing included): spawn one process per node, connect a channel
    per directed pair (deduplicated; [src = dst] pairs and nodes
    outside the system are rejected) and take over every node's router
    sink. Pairs are connected in list order, so each sender's NIPT and
    proxy indices count up from 0 in the order its pairs appear.
    [seed] seeds {!rng} and the {!chaos_links} stream. Raises
    [Invalid_argument] on an empty or bad pair list. *)

val create : config -> pairs:(int * int) list -> t
(** {!validate}, build the mesh {!config} describes, then {!attach}.
    Raises [Invalid_argument msg] when {!validate} gives [Error msg]. *)

val engine : t -> Udma_sim.Engine.t
val nodes : t -> int
val now : t -> int
val rng : t -> Udma_sim.Rng.t
(** A fresh independent stream split off the fabric's master RNG. *)

val calibrate_send : t -> nbytes:int -> int
(** Cycles one warm contiguous user-level send of [nbytes] costs on
    this fabric (measured once per distinct size, then memoized).
    [nbytes] must be a positive 4-byte multiple <= the channel
    capacity (4092). *)

val calibrate_strided : t -> stride:int -> chunk:int -> nbytes:int -> int
(** Same for one warm {e shaped} (strided) send gathering [chunk]
    bytes every [stride] — the whole span must lie within one page. *)

val post :
  t ->
  src:int ->
  dst:int ->
  nbytes:int ->
  cost:int ->
  ?on_deliver:(int -> unit) ->
  unit ->
  unit
(** Enqueue one [nbytes] message on [src]'s CPU queue. The CPU serves
    queued messages in order, [cost] cycles each; with finite credits
    the hand-off stalls at the router's injection gate until the
    first-hop deposit FIFO has a slot. [on_deliver now] fires when the
    receive-side DMA deposit completes. Raises [Invalid_argument] for
    a pair without a channel or an invalid size. *)

val run_until_idle : t -> unit

(** {1 Seeded link chaos (the mesh [M_link_fault] action, app-level)} *)

val chaos_links : t -> ?period:int -> ?slow_factor:int -> until:int -> unit -> unit
(** Schedule a seeded kill/slow/heal storm: every [period] cycles
    (default 5000) until cycle [until], one random directed mesh link
    is set to [Link_dead], [Link_slow slow_factor] (default 4) or
    healed, with the same 2:2:1 mix as the chaos mesh's
    [M_link_fault]. Delivery still always completes (dead links cross
    at {!Udma_shrimp.Router.dead_crossing_factor}× occupancy), so a
    closed-loop app must drain — the smoke CI asserts exactly that. *)

(** {1 Counters} *)

val launched : t -> int
(** Messages handed to a NI. *)

val delivered : t -> int
(** Delivery callbacks fired. *)

val credit_stalls : t -> int
val credit_stall_cycles : t -> int

val faults_injected : t -> int
(** Chaos link events applied. *)

val payload : t -> nbytes:int -> bytes
(** The deterministic fill injected for [nbytes]-byte messages (for
    receive-buffer verification in tests). *)

val read_payload : t -> src:int -> dst:int -> len:int -> bytes
(** The first [len] bytes of the (src, dst) channel's receive buffer
    — what the zero-copy reader sees (test helper, no cycle cost). *)
