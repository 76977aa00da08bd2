(** Machine-checkable oracles for the paper's OS invariants I1–I4.

    Each oracle is a pure predicate over the live [Machine.t] (page
    tables, frame ownership, UDMA registers, queues and reference
    counters). The chaos driver evaluates {!check_now} after every
    simulation step and {!post_switch} at every context switch; any
    counterexample is reported as a {!violation} naming the invariant
    it breaks.

    The invariants, as decided here:

    - {b I1} (atomicity): immediately after a context switch the UDMA
      initiation machine is never in [DestLoaded] — a partially
      initiated STORE/LOAD pair cannot survive into another process.
      Only checkable at switch time, hence {!post_switch}.
    - {b I2} (mapping consistency): every present memory-proxy mapping
      [PROXY(vpn) → p] has a present real mapping [vpn → frame] with
      [p = PROXY(frame)].
    - {b I3} (content consistency, write-upgrade policy): a writable
      memory-proxy page implies a dirty real page, and every
      user-initiated UDMA transfer destined for a mapped user page
      finds that page (effectively) dirty {e before} data lands.
    - {b I4} (register consistency): the engine's per-frame reference
      counters account exactly for the frames of outstanding requests,
      and every frame named by the engine's registers, queues or
      latched DESTINATION still backs the user mapping it backed at
      initiation — i.e. it was not replaced mid-transfer. *)

type violation = {
  invariant : Udma_os.Machine.invariant;
  detail : string;
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

val post_switch : Udma_os.Machine.t -> violation option
(** The I1 oracle; sound only when evaluated right after a context
    switch (install it via [Machine.on_switch]). *)

val check_now : Udma_os.Machine.t -> violation option
(** I2, I3 and I4 in that order; first counterexample wins. Safe to
    call between any two simulation events. *)

val check_router : Udma_shrimp.Router.t -> violation option
(** N1, N2 then F1; first counterexample wins. Safe between any two
    simulation events, like {!check_now}. *)

val check_i5 : Udma_protect.Backend.t -> violation option
(** I5, cross-tenant isolation ({!Udma_protect.Backend.check}): every
    datapath-visible decode entry (NIPT / IOTLB / capability) is
    backed by a live grant, and no journalled authorization paired a
    tenant with a page it does not own or whose grant was already
    revoked. The two planted protection bugs of [test/mutants/] (an
    owner check skipped on one page, a datapath entry left alive by
    teardown) must both surface here. *)
