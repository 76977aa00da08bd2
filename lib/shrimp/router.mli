(** The interconnect: a 2-D mesh router standing in for the Intel
    Paragon routing backplane (paper §8), with a choice of wormhole
    routing policy.

    With [link_contention] off (the default), packet latency is the
    closed form [base + hops·per_hop + words·per_word]; each link is
    cut-through so only total occupancy matters for the shapes the
    evaluation measures. With it on, every directed mesh link is a
    FIFO wire: the header claims each link along the path as the wire
    frees, each claim holds the link for the packet's full word
    occupancy, and queueing delay accumulates hop by hop — on idle
    links this telescopes to exactly the closed form, so the option
    changes nothing until the network is actually loaded. Link
    utilisation and queue depth are published as [net.link.*] metrics
    into the engine's registry.

    {b Routing policies.} [`Dimension_order] (the default) walks X to
    the destination column, then Y — one fixed path per (src, dst).
    [`Minimal_adaptive] chooses at every hop, among the (at most two)
    productive links — those reducing the remaining X or Y distance —
    the one with the smaller [busy_until], preferring live links over
    dead ones and the X link on ties, so an idle mesh reproduces the
    dimension-order path exactly. Both policies are minimal: every
    packet crosses exactly [hops] links. Adaptive choice needs the
    per-link busy state, so it only differs from dimension order when
    [link_contention] is on.

    {b Virtual channels.} With [vc_count > 1] each directed link
    multiplexes 2–4 virtual channels over one physical wire. VC
    assignment is packet-granularity: a whole packet rides one VC per
    link (wormhole flits of one packet never interleave on a VC), and
    the allocator round-robins among the {e ready} VCs — those whose
    previous packet's tail has cleared the wire by the time this
    header arrives. The wire itself is a shared resource booked by
    reservation: a claim takes the earliest gap in the link's
    outstanding reservations, so a packet on VC 1 can backfill an
    idle window in front of a long VC 0 transfer instead of queueing
    behind its tail — that backfill is the head-of-line-blocking
    relief VCs exist for. Per-VC depth and grant counts are published
    as [net.vc.*] metrics.

    {b Credit-based flow control.} With [rx_credits = Some n] the
    receive FIFO behind each (link, VC) has [n] deposit slots. A claim
    must take the slot that frees soonest; when none is free by the
    header's arrival the claim stalls ([net.credit.stalls] /
    [net.credit.stall_cycles]) instead of queueing without bound. On a
    [Link_dead] link the deposit side's credit returns are lost, so
    grants are quantised to 32-cycle retry polls, each counted in
    [net.credit.nacks]. Sources can consult
    {!injection_ready} to stall at injection rather than on the wire.
    Credit conservation ([held + in_flight + free = capacity] per
    (link, VC), checked by {!check_credits}) and arbitration fairness
    (a ready VC is granted within [vc_count] rounds, checked by
    {!check_arbitration}) are the N1/N2 oracles of the chaos harness.

    {b In-order delivery.} Delivery between a pair of nodes is in
    order — a small packet never overtakes a large one sent before it
    (SHRIMP's flag-after-payload notification depends on this). Under
    dimension-order the fixed path plus FIFO links give this for free;
    under minimal-adaptive or with several VCs, packets of one pair
    can take different paths or channels, so [send] additionally
    clamps every arrival to after the pair's previous arrival.
    test_props checks the guarantee under contention for both policies
    and with VCs + finite credits enabled.

    {b Who decides what.} [Router] only dispatches. [Mesh] owns the
    topology, the dimension-order path, the link table (faults and
    link stats), the sinks and the in-order clamp. {!create} checks
    the config with {!validate} and picks the wire once: the closed
    form ([link_contention = false]), [Analytic] (routing policy, VCs,
    reservations, credits, the injection gate, N1/N2) or [Flit]
    (worms, input FIFOs, the flit clock, F1). Each holds only its own
    state; an operation the chosen wire does not model answers
    neutrally ([injection_ready] is [now], the other wire's checks are
    [None] and its stats empty, {!route} is {!path}). *)

type routing = [ `Dimension_order | `Minimal_adaptive ]

(** How a contended wire is modelled. [`Analytic] (the default) is the
    packet-granularity reservation model described above — whole
    packets claim whole wire intervals, so anchors over it are
    byte-identical to the pre-flit router. [`Flit] decomposes every
    packet into head/body/tail flits of [flit_words] words and runs a
    cycle-by-cycle wormhole network: each directed link has per-VC
    input FIFOs of [rx_credits] flit slots, a round-robin arbiter (the
    same {!arbitrate} discipline, per output wire) advances at most
    one flit per link per flit-cycle, credits return per flit slot,
    body flits follow the path and VC their head reserved, and a
    blocked head stalls the worm in place — holding buffer slots
    across multiple links, which is the head-of-line blocking the
    analytic wire cannot express (E18 measures the delta). A wire whose
    only ready waiter wins it grants that worm's consecutive flits as a
    run in one arbitration, each crossing still at its own flit-cycle,
    so every number below is the one a grant per flit gives. Flit mode
    is dimension-order only and, like faults and credits, lives in the
    contended link model ([link_contention = false] ignores it; the
    traffic generator rejects the pair). *)
type crossing = [ `Analytic | `Flit ]

type config = {
  base_cycles : int;       (** injection + ejection *)
  per_hop_cycles : int;
  per_word_cycles : int;   (** wire occupancy per 32-bit word *)
  link_contention : bool;
      (** model per-link FIFO queueing (default off: closed form) *)
  routing : routing;
      (** path policy; [`Minimal_adaptive] needs [link_contention] to
          have any effect (default [`Dimension_order]) *)
  vc_count : int;
      (** virtual channels per directed link, 1..4 (default 1: the
          single-FIFO model, bit-for-bit) *)
  rx_credits : int option;
      (** deposit slots per (link, VC) receive FIFO; [None] (default)
          = unlimited, the pre-credit model. Like faults, credits live
          in the contended link model only. In flit mode this is the
          per-(link, VC) input-FIFO depth in flits, fixed at creation
          ({!set_rx_credits} only resizes the analytic pools). *)
  crossing : crossing;
      (** wire model under contention (default [`Analytic]) *)
  flit_words : int;
      (** 32-bit words per flit in [`Flit] mode, [>= 1] (default 1);
          a flit occupies a wire for [flit_words · per_word_cycles]
          cycles (fault-scaled) *)
}

val default_config : config
(** 20 / 8 / 1 cycles, contention off, dimension-order, 1 VC,
    unlimited credits, analytic crossing, 1-word flits. *)

type t

val mesh_width : int -> int
(** Width of the squarest mesh covering a node count. *)

val valid_nodes : int -> bool
(** A node count is routable iff it fills complete rows of the
    {!mesh_width} mesh (2, 4, 6, 9, 12, 16, 20, 25, ...); a partial
    top row would put phantom ids [>= nodes] on routes. *)

val validate : nodes:int -> config -> (unit, string) result
(** [Error msg] unless {!valid_nodes}[ nodes], [vc_count] is in 1..4,
    [rx_credits] (when finite) is [>= 1], [flit_words >= 1],
    [base_cycles], [per_hop_cycles] and [per_word_cycles] are [>= 0],
    and the crossing/routing combination is supported ([`Flit] is
    dimension-order only). The one place a router config is judged. *)

val create :
  engine:Udma_sim.Engine.t -> nodes:int -> ?config:config -> unit -> t
(** A mesh of the squarest shape covering [nodes], with the wire model
    the config selects. Raises [Invalid_argument msg] when {!validate}
    gives [Error msg]. *)

val width : t -> int
(** Mesh width (ids are row-major: [id = x + y·width]). *)

val coords : t -> int -> int * int
(** Mesh coordinates of a node id. *)

val hops : t -> src:int -> dst:int -> int
(** Minimal hop count ([0] for self; both policies are minimal). *)

val path : t -> src:int -> dst:int -> (int * int) list
(** The dimension-order (from, to) links, x first then y; empty for
    [src = dst]. *)

val route : t -> src:int -> dst:int -> (int * int) list
(** The links the configured policy would pick {e right now}, against
    the current link busy/fault state, without claiming anything.
    Equals {!path} under [`Dimension_order] and outside the analytic
    crossing. *)

val register : t -> node_id:int -> (Packet.t -> unit) -> unit
(** Install node [node_id]'s delivery sink. *)

val send : t -> Packet.t -> unit
(** Route a packet: its sink fires after the modelled latency. Raises
    [Invalid_argument] for an unregistered destination. *)

val latency_cycles : t -> src:int -> dst:int -> bytes:int -> int
(** The contention-free closed form (a lower bound when
    [link_contention] is on). *)

(** {1 Link faults}

    Faults live in the contended link model: with [link_contention]
    off packets never touch per-link state and faults change nothing.
    A [Link_slow k] link holds the wire [k]× the normal occupancy per
    crossing. A [Link_dead] link is avoided by [`Minimal_adaptive]
    whenever another productive link exists; when it is the only
    productive link (or the policy is dimension-order), the packet
    still crosses — at {!dead_crossing_factor}× occupancy, modelling
    the recovery/retransmit path — and [net.link.dead_crossings]
    counts it. Delivery therefore always completes and the in-order
    clamp keeps its guarantee under any fault mix. *)

type fault = Link_ok | Link_slow of int | Link_dead

val dead_crossing_factor : int

val set_link_fault : t -> from_node:int -> to_node:int -> fault -> unit
(** Set the fault state of one directed mesh link. Raises
    [Invalid_argument] unless the nodes are mesh neighbours (and, for
    [Link_slow k], [k >= 1]). [Link_ok] heals the link. *)

val link_fault : t -> from_node:int -> to_node:int -> fault

(** {1 Virtual channels and credits} *)

val arbitrate : rr:int -> ready:bool array -> int option
(** The pure round-robin arbiter: the first ready VC scanning
    circularly from [rr], or [None] when none is ready. Advancing
    [rr] to just past each grant bounds a continuously-ready VC's
    wait to [vc_count - 1] skipped rounds — the no-starvation
    property test_props exercises directly. *)

val set_rx_credits : t -> int option -> unit
(** Resize every (link, VC) deposit FIFO under load (the chaos mesh's
    credit squeeze). Growing adds slots free now; shrinking revokes
    the most-available slots first, never yanking a buffer from under
    an in-flight packet — the freed-slot count can therefore go
    transiently negative while revoked buffers drain, but credit
    conservation is preserved. [None] removes the credit limit.
    Only the analytic crossing has resizable pools; elsewhere this
    does nothing. Raises [Invalid_argument] for [Some n] with
    [n < 1]. *)

val rx_credits : t -> int option
(** The current deposit-FIFO capacity ([None] = unlimited); outside
    the analytic crossing, the configured one. *)

val injection_ready : t -> src:int -> dst:int -> int
(** Earliest cycle ([>= now]) the first-hop link toward [dst] has a
    deposit slot free on some VC. [now] whenever credits are
    unlimited, contention is off, or [src = dst]. Sources use this to
    stall injection instead of queueing on the wire. *)

val check_credits : t -> string option
(** N1, credit conservation: [Some detail] iff some (link, VC) pool
    has [held + in_flight + free <> capacity] (or negative
    in-flight). Holds at {e every} cycle. *)

val check_arbitration : t -> string option
(** N2, arbitration fairness: [Some detail] iff some ready VC has
    been skipped [vc_count] or more consecutive arbitration rounds. *)

type vc_stat = {
  vc_from : int;
  vc_to : int;
  vc_index : int;
  vc_grants : int;      (** packets granted to this VC *)
  vc_max_depth : int;   (** deepest per-VC occupancy observed *)
  vc_max_skip : int;    (** worst ready-but-skipped streak *)
}

val vc_stats : t -> vc_stat list
(** Per-VC counters for every link that exists, sorted by
    (from, to, vc). *)

type credit_stat = {
  cr_from : int;
  cr_to : int;
  cr_vc : int;
  cr_capacity : int;
  cr_held : int;
  cr_inflight : int;
  cr_free : int;
}

val credit_stats : t -> credit_stat list
(** Per-(link, VC) credit-pool state, sorted by (from, to, vc); empty
    when credits are unlimited. *)

(** {1 Flit-level crossing} (all empty/zero unless [crossing = `Flit]
    with [link_contention]). Each reader sees the state a grant per
    flit leaves after the last flit-cycle, also in the middle of a run
    (a wire's stall cycles included, here and in {!link_stats}). *)

val check_flits : t -> string option
(** F1, flit conservation: [Some detail] iff flits injected differ
    from flits delivered plus flits sitting in FIFOs, or some finite
    input FIFO has [credits + occupancy <> capacity] (or occupancy
    beyond capacity), or the running per-VC occupancy total behind
    {!flit_vc_occupancy} differs from the sum over the FIFOs. Holds at
    {e every} flit-cycle; always [None] in
    analytic mode. *)

type flit_stat = {
  fl_from : int;
  fl_to : int;
  fl_vc : int;
  fl_capacity : int;      (** input-FIFO flit slots; -1 = unlimited *)
  fl_occ : int;           (** flits buffered right now *)
  fl_credits : int;       (** sender-side credits; -1 = unlimited *)
  fl_max_occ : int;
  fl_grants : int;        (** flits pushed into this FIFO *)
  fl_stall_cycles : int;  (** link cycles with a ready waiter, no grant *)
  fl_hol_cycles : int;    (** of those, cycles the wire itself was free *)
}

val flit_stats : t -> flit_stat list
(** Per-(link, VC) input-FIFO state, in (from, to, vc) order. *)

val flit_counts : t -> int * int * int
(** [(injected, delivered, in_network)] flit totals; conservation
    means the first equals the sum of the other two. *)

val flit_vc_occupancy : t -> (float * int) array
(** Per VC index: (mean, max) total buffered flits across all links,
    the mean taken over active flit-cycles — the per-VC occupancy
    profile E18 reports. *)

(** {1 Link statistics} (all zero unless [link_contention]) *)

type link_stat = {
  from_node : int;
  to_node : int;
  xmits : int;          (** packets that crossed this link *)
  busy_cycles : int;    (** cycles the wire was occupied *)
  wait_cycles : int;    (** head-of-line blocking accumulated here *)
  max_depth : int;      (** deepest FIFO occupancy observed *)
}

val link_stats : t -> link_stat list
(** Every link that carried at least one packet, sorted by (from, to). *)

val publish_link_gauges : t -> unit
(** Publish per-link utilisation ([busy_cycles / now]) as
    [net.link.util.A-B] gauges into the engine's metrics registry. *)

val packets_routed : t -> int
