(** The UDMA hardware state machine (paper §5, Figure 5), extended with
    shape words for strided and scatter-gather initiation.

    Pure transition function over the three states — [Idle],
    [Dest_loaded], [Transferring] — and the events [Store], [Load]
    (with [Inval] being a store of a non-positive count and [BadLoad]
    a load from the same proxy space as the latched destination), plus
    the internal [Done] event from the DMA engine. Events with no
    depicted transition leave the state unchanged (paper: "if no
    transition is depicted ... that event does not cause a state
    transition").

    {b Shape words.} A STORE whose value has bit 30 set refines the
    latched destination instead of overwriting it: a {e strided} word
    (bit 29 clear) stored to the same destination proxy encodes
    [stride]/[chunk] fields, and a {e scatter-gather} word (bit 29 set)
    stored to a fresh proxy address in the destination space appends a
    [(proxy, len)] element. Every protocol violation — a shape word
    with no latched destination, a strided word to the wrong proxy or
    space, a zero field, or mixing strided with sg — is an Inval, so
    the protected path never starts a transfer from a malformed shape.
    The completing LOAD still carries the source reference and the
    per-element page clamp is applied by {!Udma_engine} at initiation.

    The function is pure so it can be tested exhaustively; the engine
    in {!Udma_engine} interprets the returned action against the real
    DMA hardware. *)

type space = Mem_space | Dev_space

val pp_space : Format.formatter -> space -> unit

type shape =
  | Flat  (** no shape word seen: today's contiguous transfer *)
  | Strided of { stride : int; chunk : int }
      (** source advances [stride] bytes per [chunk]-byte piece *)
  | Gather of { rev_elems : (int * int) list }
      (** sg destination elements [(proxy paddr, len)], latest first;
          the latched destination is element zero and receives the
          remainder — the count minus the listed lengths *)

type dest = { dest_proxy : int; dest_space : space; nbytes : int; shape : shape }
(** Latched DESTINATION register + COUNT + shape refinement.
    [dest_proxy] is a physical proxy address. *)

type state =
  | Idle
  | Dest_loaded of dest
  | Transferring of { src_proxy : int; src_space : space; dest : dest }

val pp_state : Format.formatter -> state -> unit

type event =
  | Store of { proxy : int; space : space; value : int }
      (** a STORE of [value] to physical proxy address [proxy];
          [value <= 0] is an [Inval], bit 30 marks a shape word *)
  | Load of { proxy : int; space : space }
  | Done  (** the DMA engine finished the transfer *)

type action =
  | No_action        (** event ignored in this state *)
  | Latch_dest       (** DESTINATION/COUNT written *)
  | Latch_shape      (** shape word consumed, refinement latched *)
  | Invalidated      (** Inval consumed, machine reset to Idle *)
  | Start of { src_proxy : int; src_space : space; dest : dest }
      (** the Load completed an initiation pair: start the DMA *)
  | Bad_load         (** load from the same space as the destination *)
  | Status_probe     (** load answered with status only *)
  | Completed        (** Done consumed *)

val pp_action : Format.formatter -> action -> unit

val step : state -> event -> state * action
(** One transition. Total over all [state * event] pairs. *)

val load_is_probe : state -> bool
(** [load_is_probe s] holds exactly when {!step} answers every [Load]
    in [s] with [(s, Status_probe)]: in [Idle] and [Transferring]. The
    engine answers such loads without building the event or the
    result pair. *)

(** {1 Shape-word encoding}

    Bit 30 tags a shape word; bit 29 selects sg over strided; strided
    words carry the stride in bits 28..14 and the chunk in bits 13..0;
    sg words carry the element length in bits 13..0. *)

val max_stride : int
(** 32767 — largest encodable strided stride. *)

val max_shape_field : int
(** 16383 — largest chunk / sg element length. *)

val is_shape_word : int -> bool

val encode_strided_word : stride:int -> chunk:int -> int
(** Raises [Invalid_argument] when a field does not fit. *)

val encode_sg_word : len:int -> int
(** Raises [Invalid_argument] when [len] does not fit or is not
    positive. *)

val decode_shape_word : int -> [ `Strided of int * int | `Sg of int ] option
(** [`Strided (stride, chunk)] or [`Sg len]; [None] for plain values. *)
