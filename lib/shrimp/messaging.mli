(** User-level message passing over deliberate update (paper §8).

    A channel is a one-way mapping from a sender process to an
    exported, pinned receive buffer. [send] is a UDMA transfer of the
    payload followed by a 4-byte flag-word transfer carrying the
    message sequence number; the receiver polls the flag word in its
    own memory with ordinary cached loads — no interrupts, no kernel.

    The last word of the buffer is the flag; the payload capacity is
    the rest. *)

type channel

val capacity : channel -> int
(** Usable payload bytes per message. *)

val recv_vaddr : channel -> int
(** Receiver's virtual address of the payload. *)

val dev_vaddr : channel -> offset:int -> int
(** Sender's virtual device-proxy address of payload byte [offset] —
    the destination address shaped initiations target directly. *)

val connect :
  System.t ->
  sender:int * Udma_os.Proc.t ->
  receiver:int * Udma_os.Proc.t ->
  ?first_index:int ->
  pages:int ->
  unit ->
  channel
(** Set up a channel using device-proxy/NIPT pages
    [first_index .. first_index+pages-1] (default [first_index] 0) on
    the sending node. Allocates and pins the receive buffer, fills the
    NIPT, maps the proxies, and allocates the sender's staging page. *)

type send_error = Transfer of Udma.Initiator.error

val pp_send_error : Format.formatter -> send_error -> unit

val send :
  channel ->
  Udma.Initiator.cpu ->
  src_vaddr:int ->
  nbytes:int ->
  ?config:Udma.Initiator.config ->
  unit ->
  (int, send_error) result
(** Blocking send of [nbytes] (4-byte multiple, at most [capacity]):
    payload transfer, then flag transfer. Returns the message's
    sequence number. *)

val send_pipelined :
  channel ->
  Udma.Initiator.cpu ->
  src_vaddr:int ->
  nbytes:int ->
  ?config:Udma.Initiator.config ->
  unit ->
  (int, send_error) result
(** Like {!send} but issues the payload pages through the §7 hardware
    queue ([Initiator.transfer_queued]) — two references per page,
    waiting only once. Requires the sending node's UDMA engine to be in
    [Queued] mode for real pipelining; degrades to serialised pieces on
    basic hardware. *)

val send_strided :
  channel ->
  Udma.Initiator.cpu ->
  src_vaddr:int ->
  stride:int ->
  chunk:int ->
  nbytes:int ->
  ?config:Udma.Initiator.config ->
  unit ->
  (int, send_error) result
(** Blocking send that gathers a strided source region — [chunk] bytes
    every [stride] — densely into the channel through one shaped
    initiation (three protected references), then sends the flag. The
    whole strided span must lie within the source page: the hardware
    clamps each element to its own page and silently drops what falls
    outside. *)

val send_nowait :
  channel ->
  Udma.Initiator.cpu ->
  src_vaddr:int ->
  nbytes:int ->
  ?pipelined:bool ->
  ?config:Udma.Initiator.config ->
  unit ->
  (unit, send_error) result
(** Payload only, no flag — the streaming-bandwidth primitive used by
    the Figure 8 measurement. [pipelined] (default false) issues the
    pages through the §7 queue. *)

val inject : channel -> ?offset:int -> bytes -> unit
(** Hardware-level enqueue of one payload packet onto the channel,
    bypassing the sender's CPU/UDMA initiation (which costs no
    simulated cycles here): the bytes enter the sending NI's outgoing
    FIFO addressed at the export's pinned frames, then cross the wire,
    the router and the receive-side DMA deposit as usual. The payload
    must lie within one page so it forms a single packet; no flag word
    is sent. The bytes are captured at the call: the caller may
    overwrite [bytes] while the packet is still queued. Load generators use this to model many concurrently
    initiating senders on the one shared clock, charging the
    calibrated initiation cost out of band. *)

val recv_wait :
  channel -> Udma.Initiator.cpu -> seq:int -> ?max_polls:int -> unit ->
  (int, string) result
(** Poll until the flag reaches [seq] (default budget 10_000_000
    polls); returns the number of polls. *)

val read_payload : channel -> len:int -> bytes
(** Receiver-side payload bytes (test/verification helper, no cycle
    cost). *)
