(** User-level transfer initiation library.

    This is the code a user process runs: the two-reference
    STORE/LOAD sequence of §3, the data-alignment / page-boundary check
    that the paper's 2.8 µs figure includes (§8), retry on
    invalidation or a busy engine, splitting of multi-page transfers
    (SHRIMP's optimistic split: each piece passes the full remaining
    count, the hardware clamps it at the page boundary, and the library
    advances by the count the status word reports), and completion
    polling by re-issuing the initiating LOAD (§5).

    The library is written against an abstract {!cpu} so it can run on
    any simulated process; the OS layer provides the concrete
    implementation that charges cycle costs and handles faults. *)

type cpu = {
  load : vaddr:int -> int32;         (** user-level LOAD *)
  store : vaddr:int -> int32 -> unit;  (** user-level STORE *)
  repeat_load : vaddr:int -> max:int -> int;
      (** [repeat_load ~vaddr ~max] is called by the completion polls
          right after a [load] of [vaddr] whose word said "keep
          waiting". It accounts, in one step, the next [k <= max] loads
          of [vaddr] — every cycle, counter and side effect they would
          have had — when it can prove each would return a word with
          the same flags, and returns [k]. [0] means nothing was
          accounted and the caller loads again; the result is the same
          either way, only faster. *)
  compute : int -> unit;             (** charge pure CPU cycles *)
  now : unit -> int;                 (** current cycle *)
}

type endpoint =
  | Memory of int
      (** ordinary virtual address of user data; the library applies
          [PROXY] itself *)
  | Device of int
      (** virtual device-proxy address *)

type config = {
  call_overhead_cycles : int;
      (** fixed software cost per [transfer*] call (argument setup,
          loop entry) — charged once per message *)
  alignment_check_cycles : int;
      (** software cost of the §8 alignment / page-boundary check,
          charged once per initiated piece *)
  max_retries : int;   (** retry budget per piece for busy/invalidated *)
  poll_limit : int;    (** completion-poll budget per piece *)
}

val default_config : config
(** 180-cycle call overhead, 100-cycle check (DESIGN.md §5),
    10_000 retries, 10_000_000 polls. *)

type error =
  | Hard_error of Status.t
      (** wrong-space or device-specific error reported by hardware *)
  | Retries_exhausted of Status.t
  | Poll_limit_exceeded
  | Protocol_violation of string
      (** a completion probe unexpectedly initiated a transfer — only
          possible when the I1 kernel discipline is broken *)

val pp_error : Format.formatter -> error -> unit

type stats = {
  pieces : int;        (** hardware transfers issued *)
  pairs : int;         (** STORE/LOAD pairs executed, incl. retries *)
  retries : int;
  polls : int;         (** completion-wait probe loads *)
  cycles : int;        (** total cycles from first STORE to completion *)
}

val transfer :
  cpu ->
  layout:Udma_mmu.Layout.t ->
  ?config:config ->
  src:endpoint ->
  dst:endpoint ->
  nbytes:int ->
  unit ->
  (stats, error) result
(** Blocking transfer for the basic (§5) hardware: initiates each
    page-bounded piece, waits for it to complete, proceeds to the next.
    Both endpoint addresses advance together as pieces are issued. *)

val transfer_queued :
  cpu ->
  layout:Udma_mmu.Layout.t ->
  ?config:config ->
  src:endpoint ->
  dst:endpoint ->
  nbytes:int ->
  unit ->
  (stats, error) result
(** Pipelined transfer for the queued (§7) hardware: issues every piece
    back-to-back (two references per page; retrying the LOAD alone when
    the queue is full) and then waits only for the last piece, as §7
    prescribes. *)

val transfer_gather :
  cpu ->
  layout:Udma_mmu.Layout.t ->
  ?config:config ->
  pieces:(endpoint * endpoint * int) list ->
  unit ->
  (stats, error) result
(** Gather–scatter (§7): a list of (src, dst, nbytes) transfers issued
    through the queue, waiting only for the last. Each entry may itself
    span pages. *)

(** {2 Shaped (strided / scatter-gather) initiation}

    The descriptor-proxy extension: after the count STORE, the user
    library issues tagged shape words through the same protected
    proxy-space references, then the initiating LOAD. The hardware
    expands the shape into per-element transfers, clamping every
    element to its own page. *)

type shape_spec =
  | Strided_shape of { stride : int; chunk : int }
      (** source advances by [stride] bytes per element, destination
          packs densely; each element moves [chunk] bytes *)
  | Gather_shape of (endpoint * int) list
      (** extra destination elements after the latched first one, each
          [(endpoint, len)]; the first element keeps the remainder
          [nbytes - sum of listed lens], which must be positive *)

val transfer_shaped :
  cpu ->
  layout:Udma_mmu.Layout.t ->
  ?config:config ->
  ?queued:bool ->
  src:endpoint ->
  dst:endpoint ->
  shape:shape_spec ->
  nbytes:int ->
  unit ->
  (stats, error) result
(** Blocking shaped transfer: one shaped initiation (three or more
    protected references), then poll the initiating LOAD until the
    match flag clears. [queued] selects the queue-full retry behaviour
    (retry the LOAD alone, §7) and must match the hardware's mode. *)

val start_shaped :
  cpu ->
  layout:Udma_mmu.Layout.t ->
  ?config:config ->
  ?queued:bool ->
  src:endpoint ->
  dst:endpoint ->
  shape:shape_spec ->
  nbytes:int ->
  unit ->
  (Status.t * int, error) result
(** Fire-and-forget shaped initiation: runs the protected sequence
    until accepted and returns [(accepted status, probe address)]
    without waiting for completion. Pipelined callers pass the probe
    to {!await}; the chaos harness uses it to leave shaped transfers
    in flight. *)

val await : cpu -> ?config:config -> probe:int -> unit -> (int, error) result
(** [await cpu ~probe ()] re-issues the initiating LOAD at [probe]
    until the match flag clears (§5) and returns the number of probe
    loads. *)

val initiation_cycles : cpu -> layout:Udma_mmu.Layout.t -> config:config ->
  src:endpoint -> dst:endpoint -> nbytes:int -> (int, error) result
(** The paper's §8 initiation measurement: cycles from first reference
    until the initiating LOAD returns, for a single piece, not waiting
    for the transfer itself. *)
