(** Physical-address bus: routes accesses to memory or I/O ranges.

    After MMU translation every access is physical. Real memory is
    serviced by {!Udma_memory.Phys_mem}; registered I/O ranges (the
    UDMA engine's proxy regions, memory-mapped FIFOs...) are serviced by
    their handlers. The bus also owns the transfer-timing parameters
    shared by DMA burst traffic and programmed I/O. *)

type timing = {
  single_word_cycles : int;
      (** one processor-generated uncached word transaction *)
  burst_setup_cycles : int;  (** arbitration + setup per DMA burst *)
  burst_word_cycles : int;   (** per 32-bit word within a burst *)
}

val default_timing : timing
(** 100 / 16 / 3 cycles — calibrated in DESIGN.md §5. *)

type io_handler = {
  io_load : paddr:int -> int32;
  io_store : paddr:int -> int32 -> unit;
}

type t

val create : ?timing:timing -> Udma_memory.Phys_mem.t -> t

val timing : t -> timing
val memory : t -> Udma_memory.Phys_mem.t

val register_io : t -> base:int -> size:int -> io_handler -> unit
(** [register_io t ~base ~size h] claims [base .. base+size). Raises
    [Invalid_argument] on overlap with an existing range. *)

val is_memory : t -> int -> bool
(** [is_memory t paddr]: real memory services [paddr], i.e. it lies
    within the physical memory array. Any other address is an I/O
    range or unmapped. *)

val load_word : t -> int -> int32
(** Routed 32-bit load. Raises [Invalid_argument] on unmapped
    addresses (a machine check). *)

val store_word : t -> int -> int32 -> unit

val add_snoop : t -> (paddr:int -> int32 -> unit) -> unit
(** [add_snoop t f] registers a bus snooper: [f] observes every word
    store that is routed to real memory (I/O stores are not snooped).
    SHRIMP's automatic-update hardware watches the write-through
    memory bus this way. *)

val dma_burst_cycles : t -> nbytes:int -> int
(** Bus occupancy of a DMA burst moving [nbytes]
    (setup + words × per-word). *)

val pio_cycles : t -> nbytes:int -> int
(** Bus occupancy of moving [nbytes] by processor-generated single-word
    transactions (the memory-mapped-FIFO baseline, paper §9). *)
