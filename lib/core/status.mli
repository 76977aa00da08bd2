(** The status word returned by every proxy LOAD (paper §5).

    The paper specifies seven fields; we add one extension bit
    ([queue_full]) for the §7 queueing design. The word is encoded into
    the 32-bit value the LOAD instruction returns, so user code sees
    exactly what the hardware would deliver. *)

type t = {
  started : bool;
      (** This access caused DestLoaded→Transferring (or, with
          queueing, was accepted). Encoded as the paper's INITIATION
          FLAG, which is {e zero} on success. *)
  transferring : bool;  (** device is in the Transferring state *)
  invalid : bool;       (** device is in the Idle state *)
  matches : bool;
      (** Transferring, and the referenced address equals the base
          address of a transfer in progress (with queueing: of any
          outstanding request). *)
  wrong_space : bool;   (** the access was a BadLoad *)
  queue_full : bool;    (** queued mode: request refused, queue full *)
  device_error : int;   (** device-specific error bits (0 = none) *)
  remaining_bytes : int;
      (** bytes remaining in DestLoaded/Transferring; 0 otherwise *)
}

val idle : t
(** The word returned by a probe of an idle engine: initiation flag
    set, invalid set, everything else clear. *)

val make :
  ?started:bool ->
  ?transferring:bool ->
  ?invalid:bool ->
  ?matches:bool ->
  ?wrong_space:bool ->
  ?queue_full:bool ->
  ?device_error:int ->
  ?remaining_bytes:int ->
  unit ->
  t

val encode : t -> int32
(** Bit layout: bit 0 = INITIATION FLAG (1 = {e not} started), 1 =
    TRANSFERRING, 2 = INVALID, 3 = MATCH, 4 = WRONG-SPACE, 5 =
    QUEUE-FULL, 6–9 = DEVICE-SPECIFIC ERRORS, 10–30 = REMAINING-BYTES
    (saturating). *)

val decode : int32 -> t

val probe :
  transferring:bool -> invalid:bool -> matches:bool -> remaining_bytes:int ->
  int32
(** The encoded word a status probe returns, built straight from its
    fields: [encode (make ~transferring ~invalid ~matches
    ~remaining_bytes ())] without the record, so the most frequent
    word boxes only the [int32]. *)

type flag = Started | Transferring | Invalid | Matches

val has : flag -> int32 -> bool
(** [has f w] reads one flag straight from an encoded word, e.g.
    [has Matches w = (decode w).matches], without building the record:
    completion polls test a flag or two of every word they read. *)

val ok : t -> bool
(** [ok s] is [true] when the access successfully initiated (accepted)
    a transfer and reported no device error. *)

val hard_error : t -> bool
(** [true] when a real error occurred — wrong space or device error —
    as opposed to a busy/idle condition worth retrying (paper §5). *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val max_remaining : int
(** Largest representable REMAINING-BYTES value. *)
