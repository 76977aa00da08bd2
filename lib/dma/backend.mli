(** Backend: plan realization against {!Bus.timing}.

    The backend owns the two hardware-facing halves of a transfer: the
    progress counter a mid-flight status probe reads, and the actual
    data movement performed atomically at completion time (matching the
    flat engine's deposit-at-completion model). *)

val begun : Midend.plan -> elapsed:int -> from:int -> int
(** [begun plan ~elapsed ~from] is the number of bursts whose data
    phase has begun after [elapsed] cycles. [from] is a hint — the
    count a probe found earlier — and takes no part in the result: the
    search runs forward from it in [O(log d)] for a move of [d] bursts
    and falls back to the bursts before it when [elapsed] went back. *)

val bytes_done : Midend.plan -> elapsed:int -> begun:int -> int
(** [bytes_done plan ~elapsed ~begun] is the number of bytes on the
    wire after [elapsed] cycles, given [begun] = {!begun} at [elapsed]:
    zero while a burst is in its fetch/setup/device overhead, then one
    word per [burst_word_cycles], capped at each element's length. *)

val execute : Bus.t -> Midend.plan -> unit
(** Move every element's data (memory→device or device→memory), in
    element order, reading addresses from the plan's descriptor. *)
