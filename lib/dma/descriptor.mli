(** Typed transfer descriptors (the DMA frontend's input language).

    A descriptor describes {e what} to move; the frontend validates it,
    the midend decomposes it into bursts with per-descriptor fetch cost,
    and the backend realizes bus occupancy. The split follows the
    modular-iDMA architecture (Benz et al.): description is an API
    layer, cost realization is another.

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
  | Contiguous of { src : endpoint; dst : endpoint; nbytes : int }
      (** Today's shape: one flat byte range. Cost-identical to the
          pre-descriptor engine. *)
  | Strided of {
      src : endpoint;
      dst : endpoint;
      stride : int;  (** source advance between consecutive chunks *)
      chunk : int;   (** bytes moved per repetition *)
      reps : int;    (** number of chunks *)
    }
      (** [reps] chunks of [chunk] bytes; the source steps by [stride]
          per chunk (a strided read of rows/columns), the destination is
          packed densely ([chunk] apart). Total bytes = [chunk * reps]. *)
  | Scatter_gather of element list
      (** Arbitrary vector of elements, realized in order. *)

val elements : t -> element list
(** Flatten a descriptor into its ordered flat elements. *)

val total_bytes : t -> int
(** Sum of element lengths. *)
