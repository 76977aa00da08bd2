(** Frontend: descriptor validation and normalization.

    Turns a {!Descriptor.t} into the ordered flat element list the
    midend plans over, refusing malformed descriptors with the same
    error precedence the flat engine used: length first, then the
    endpoint pairing, then source bounds/permission, then destination.

    Page-boundary clamping lives here too (it moved out of the UDMA
    engine): the UDMA initiation path confines each element to the page
    its referenced proxy names, using {!clamp_to_page} per element. *)

val normalize :
  mem_size:int ->
  Descriptor.t ->
  (Descriptor.element list, Descriptor.error) result
(** Validate every element of [desc]. An empty descriptor or any
    zero/negative-length element is [Bad_size]; mem→mem or dev→dev
    elements are [Unsupported_pair]; out-of-bounds memory is
    [Bad_size]; a device refusing the address is [Device_refused]. *)

val clamp_to_page : page_size:int -> addr:int -> int -> int
(** [clamp_to_page ~page_size ~addr len] is the prefix of [len] that
    keeps [addr .. addr+len) inside [addr]'s page. *)
