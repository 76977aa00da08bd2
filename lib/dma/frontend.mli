(** Frontend: transfer validation.

    Checks the descriptor the midend plans over, one element at a time
    through {!Descriptor}'s cursor, refusing a malformed transfer with
    the same error precedence the flat engine used: length first, then
    the endpoint pairing, then source bounds/permission, then
    destination. A device's [readable]/[writable] is asked once per
    element, in element order.

    Page-boundary clamping lives here too (it moved out of the UDMA
    engine): the UDMA initiation path confines each element to the page
    its referenced proxy names, using {!clamp_to_page}. *)

val validate : mem_size:int -> Descriptor.t -> (unit, Descriptor.error) result
(** Check every element, in order, and report the first refusal. A
    descriptor with no element or any zero/negative-length element is
    [Bad_size]; mem→mem or dev→dev elements are [Unsupported_pair];
    out-of-bounds memory is [Bad_size]; a device refusing the address
    is [Device_refused]. *)

val clamp_to_page : page_size:int -> addr:int -> int -> int
(** [clamp_to_page ~page_size ~addr len] is the prefix of [len] that
    keeps [addr .. addr+len) inside [addr]'s page. *)
