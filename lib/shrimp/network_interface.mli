(** The SHRIMP network interface (paper §8, Figures 6–7).

    A UDMA device whose device-proxy pages name entries of its
    protection backend's destination table (the NIPT, for the
    production {!Udma_protect.Backend.kind.Proxy} backend this always
    instantiates). A deliberate-update send is a UDMA transfer from
    user memory to the interface: at initiation the interface
    validates the access (4-byte alignment, a configured NIPT entry —
    the device-specific error bits of §5); when the DMA delivers the
    data it packetizes (header = NIPT entry + offset) and launches the
    packet through the router, serialising on the outgoing link. On
    the receiving side the packet lands in the incoming FIFO and the
    EISA DMA logic writes the payload straight to physical memory,
    marking the frame's page dirty. *)

type config = {
  packetize_cycles : int;   (** header construction per transfer *)
  out_fifo_bytes : int;
  in_fifo_bytes : int;
  link_word_cycles : int;   (** outgoing-link occupancy per word *)
}

val default_config : config
(** 15-cycle packetize, 64 KB FIFOs, 1 cycle/word link (DESIGN.md §5
    calibration). *)

type t

val create :
  id:int -> machine:Udma_os.Machine.t -> ?config:config ->
  pool:Payload_pool.t -> unit -> t
(** [pool] supplies packet payloads and takes them back.

    {b Payload ownership.} A payload is taken from [pool] when a packet
    is made: by the DMA backend, through {!port}'s [sink_buffer], for a
    memory-to-device element, and by {!send_raw} for its copy. The
    packet owns it in flight. {!receive}'s deposit returns it to the
    pool once the bytes are in the receiver's memory; that is the only
    return. A packet dropped on the way — no router, a full FIFO, a
    vanished NIPT entry, a dead link, a receive drop, a delivery error
    — leaves its buffer to the GC. *)

val backend : t -> Udma_protect.Backend.t
(** The interface's protection backend (always
    {!Udma_protect.Backend.kind.Proxy} — its table is the NIPT). The
    kernel configures destinations through
    {!Udma_protect.Backend.grant} / [revoke]. *)

val set_router : t -> Router.t -> unit
(** Must be called before the first send. *)

val port : t -> Udma_dma.Device.port
(** Send-only DMA port ([readable] is always false: SHRIMP uses UDMA
    only for memory-to-device transfers, §8). *)

val send_raw : t -> dst_node:int -> dst_paddr:int -> bytes -> unit
(** Launch a packet straight through the outgoing path, bypassing the
    NIPT — used by the automatic-update snooper ({!Auto_update}),
    whose bindings resolve destinations directly. The packet takes a
    copy of [data], so the caller may reuse its buffer at once. *)

val receive : t -> Packet.t -> unit
(** Router sink: accept a packet into the incoming FIFO and schedule
    its EISA DMA into memory. *)

val attach : t -> unit
(** Bind the interface to its machine's UDMA engine over the whole
    device-proxy region. Raises [Failure] if the machine has no UDMA
    engine. *)

(** {1 Counters} *)

val packets_sent : t -> int
val packets_received : t -> int
val bytes_received : t -> int
