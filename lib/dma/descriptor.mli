(** Typed transfer elements (the DMA frontend's input language).

    A transfer is a non-empty list of {!element}s, realized in order:
    the frontend validates it, the midend decomposes it into bursts
    with per-element fetch cost, and the backend realizes bus
    occupancy. The split follows the modular-iDMA architecture (Benz
    et al.): description is an API layer, cost realization is another.
    A flat transfer is a one-element list; the UDMA engine expands a
    latched strided or scatter-gather shape into its list.

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
