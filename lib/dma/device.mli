(** The device side of a DMA transfer.

    A [port] is what the DMA engine talks to: a sink for
    memory-to-device transfers and a source for device-to-memory
    transfers, addressed by a device-internal address whose meaning is
    device-specific (paper §4: a pixel, a network destination, a disk
    block...). [access_cycles] lets a device add its own latency
    (e.g. disk seek) to a transfer. *)

type port = {
  name : string;
  sink_buffer : len:int -> bytes;
      (** The buffer of exactly [len] bytes the DMA backend reads one
          memory-to-device element into before it hands it to
          [dev_write]. A port that keeps payloads may hand out recycled
          ones; the backend overwrites all of it. *)
  dev_write : addr:int -> bytes -> unit;
      (** Accept [bytes] at device address [addr] (memory → device).
          The buffer comes from [sink_buffer] and the backend never
          touches it again, so the port owns it and may keep it
          without copying. *)
  dev_read : addr:int -> len:int -> bytes;
      (** Produce [len] bytes from device address [addr]
          (device → memory). *)
  access_cycles : addr:int -> len:int -> int;
      (** Extra device-side cycles for a transfer touching
          [addr .. addr+len). *)
  writable : addr:int -> bool;
      (** Whether [addr] may be a transfer destination. *)
  readable : addr:int -> bool;
      (** Whether [addr] may be a transfer source. *)
}

val fresh_buffer : len:int -> bytes
(** A [sink_buffer] that allocates a new buffer every time. *)

val null : string -> port
(** A port that accepts and produces zeros at zero cost — useful in
    tests and as a bandwidth sink. *)

val buffer : string -> size:int -> port * bytes
(** [buffer name ~size] is a port backed by a byte buffer (returned so
    tests can inspect it), zero extra cost, fully accessible. Reads and
    writes out of range raise [Invalid_argument]. *)
