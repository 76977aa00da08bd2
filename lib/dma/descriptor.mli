(** Transfer descriptors (the DMA frontend's input language), read as
    a cursor.

    A transfer is a non-empty sequence of flat elements, realized in
    order: the frontend validates it, the midend lays its bursts out
    with per-element fetch cost, and the backend realizes bus
    occupancy. The split follows the modular-iDMA architecture (Benz
    et al.): description is an API layer, cost realization is another.

    A descriptor {!t} holds the sequence in one of two forms, and every
    layer reads it through the same int-only accessors ({!count},
    {!length}, {!src_addr}, {!dst_addr}, {!bytes_before}), so no layer
    builds a record per element:
    - {!Affine}: a base element that steps by a fixed stride on each
      side, every element [chunk] bytes except a possibly shorter last
      one. A flat transfer is the one-element case; the UDMA engine
      keeps a clamped strided shape in this form.
    - {!Elements}: an array of arbitrary elements, for gather shapes and
      for callers that hand over an {!element} list ({!of_list}).

    Formatter convention for [lib/dma]: a type that something prints
    has exactly one printer, here ({!pp_error}); other modules alias it
    instead of redefining it. *)

type endpoint =
  | Mem of int                  (** physical byte address in real memory *)
  | Dev of Device.port * int    (** device port + device-internal address *)

type error =
  | Busy                  (** a transfer is already in flight *)
  | Bad_size              (** empty/negative length or beyond memory limits *)
  | Unsupported_pair      (** mem→mem or dev→dev element *)
  | Device_refused        (** endpoint not readable/writable at that address *)

val pp_error : Format.formatter -> error -> unit

type element = { src : endpoint; dst : endpoint; len : int }
(** One flat piece of a transfer: [len] bytes from [src] to [dst]. *)

type t =
  | Affine of {
      src : endpoint;  (** element 0's source *)
      dst : endpoint;  (** element 0's destination *)
      count : int;  (** elements, at least one *)
      src_stride : int;  (** source bytes from one element to the next *)
      dst_stride : int;
      chunk : int;  (** bytes of every element but the last *)
      last : int;  (** bytes of the last element *)
    }
      (** Element [i] moves [chunk] bytes (the last one [last]) from
          [src + i × src_stride] to [dst + i × dst_stride], each side on
          the device port of its base endpoint. *)
  | Elements of { elems : element array; before : int array }
      (** [before.(i)] is the byte total of [elems.(0 .. i-1)], for
          [i] up to the element count; build it with {!of_list}. *)

val of_list : element list -> t
(** The array form of an element list, in order. *)

val count : t -> int

val length : t -> int -> int
(** [length d i] is element [i]'s byte count. *)

val src_addr : t -> int -> int
(** [src_addr d i] is element [i]'s source address: a physical address
    for a memory side, a device address for a device side. *)

val dst_addr : t -> int -> int

val src_side : t -> int -> endpoint
(** [src_side d i] carries the kind of element [i]'s source ([Mem] or
    [Dev]) and its device port, without allocating. In the affine form
    it is the base endpoint, so its address is element 0's: read
    element [i]'s address with {!src_addr}. *)

val dst_side : t -> int -> endpoint

val bytes_before : t -> int -> int
(** [bytes_before d i] is the byte total of elements [0 .. i-1]:
    closed-form for the affine form. *)

val total_bytes : t -> int

val elements : t -> element list
(** Every element, expanded: for oracles and tests. *)
