(** Recycled packet payloads.

    A 4 KB payload is larger than the minor heap's limit for small
    blocks, so each fresh one is allocated in the major heap, where it
    stays until a major collection. The pool keeps the payloads of
    delivered packets and hands them out again. One pool serves the
    network interfaces of one {!System}; it is not shared between
    systems, so domains that each run their own system never touch the
    same pool.

    Only buffers of {!min_bytes} or more are kept. The pool needs no
    cap: it never holds more buffers than were in flight at once. *)

type t

val create : unit -> t

val min_bytes : int
(** 2048: shorter buffers are never kept. *)

val take : t -> int -> bytes
(** [take t len] is a buffer of exactly [len] bytes whose contents are
    unspecified: a kept one when the pool holds one of that length,
    otherwise a fresh one. The caller overwrites all of it. *)

val give : t -> bytes -> unit
(** [give t b] returns [b], which its owner will not touch again. A
    buffer shorter than {!min_bytes}, or one the pool already holds, is
    not kept: returning a buffer twice must not let two owners take
    it. *)

val held : t -> int
(** The number of buffers the pool holds now. *)
