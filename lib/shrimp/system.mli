(** A SHRIMP multicomputer: nodes (each a full {!Udma_os.Machine})
    joined by one router on one simulation clock.

    Also hosts the kernel-level export/import protocol that sets up
    deliberate-update communication: the receiver {e exports} a pinned
    buffer; the sender {e imports} it by filling NIPT entries and
    mapping the matching device-proxy pages (paper §8). *)

type node = {
  id : int;
  machine : Udma_os.Machine.t;
  ni : Network_interface.t;
  auto : Auto_update.t;
}

type config = {
  machine : Udma_os.Machine.config;
  router : Router.config;
  ni : Network_interface.config;
}

val default_config : config

type t

val create : ?config:config -> nodes:int -> unit -> t
(** Build [nodes] nodes, each with a UDMA engine and a network
    interface attached over the whole device-proxy region, registered
    on a shared router and engine. Raises [Invalid_argument] if the
    configured machine has no UDMA mode. *)

val engine : t -> Udma_sim.Engine.t
val router : t -> Router.t

val pool : t -> Payload_pool.t
(** The payload pool every node's interface takes packet buffers from
    and returns them to. *)

val node_count : t -> int
val node : t -> int -> node

val run_until_idle : t -> unit
(** Drain all in-flight packets and transfers. *)

(** {1 Export / import} *)

type export = {
  exp_node : int;
  exp_pid : int;
  vaddr : int;       (** receiver virtual address of the buffer *)
  frames : int list; (** pinned physical frames, in order *)
}

val export_buffer : t -> node:int -> proc:Udma_os.Proc.t -> pages:int -> export
(** Allocate, map and pin a receive buffer of [pages] pages on [node]
    (the pin is the import-time kernel operation that keeps incoming
    packets' physical addresses valid — not on the transfer path). *)

val import_export :
  t -> node:int -> proc:Udma_os.Proc.t -> first_index:int -> export -> unit
(** On the sending node: fill NIPT entries [first_index ...] with the
    export's (node, frame) pairs and map the matching device-proxy
    pages writable into [proc] (each mapping is the §4 grant system
    call). *)

val release_export : t -> export -> unit
(** Unpin an exported buffer's frames. *)

val auto_bind :
  t -> node:int -> proc:Udma_os.Proc.t -> vaddr:int -> export -> unit
(** Bind the pages of the local buffer at [vaddr] (which must be
    resident; pin them first if paging is active) to the exported
    remote pages, page for page — the automatic-update fixed mapping
    of §9. Raises [Invalid_argument] if sizes mismatch or a page is
    not resident. *)
