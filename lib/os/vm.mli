(** The virtual-memory manager: demand paging plus the UDMA kernel
    contract (paper §6).

    Maintains the paper's invariants:

    - {b I2} (mapping consistency): a proxy mapping
      [PROXY(vpn) → PROXY(frame)] exists only while [vpn → frame] does;
      any change to a real mapping invalidates its proxy mapping.
    - {b I3} (content consistency): a proxy page is writable only if
      its real page is dirty; the first proxy write faults, the kernel
      marks the real page dirty and enables the write; cleaning a page
      write-protects its proxy page again.
    - {b I4} (register consistency): no frame named by the UDMA
      engine's registers (or queue) is ever replaced; the replacement
      scan checks the engine instead of pinning pages.

    Proxy mappings are created on demand by {!handle_fault}, which
    implements §6's three cases (in core / paged out / illegal). *)

exception Segfault of {
  pid : int;
  vaddr : int;
  access : Udma_mmu.Mmu.access;
  reason : string;
}

exception Out_of_memory

(** {1 Mapping} *)

val map_new_page :
  Machine.t -> Proc.t -> vpn:int -> ?writable:bool -> unit -> int
(** Allocate a zeroed frame (evicting if necessary) and map it at
    [vpn]. Returns the frame. The new page is {e clean}, so using it as
    a UDMA destination first takes the I3 upgrade fault. Raises
    [Invalid_argument] if [vpn] is already mapped or not a user-memory
    page. *)

val unmap_page : Machine.t -> Proc.t -> vpn:int -> unit
(** Remove the mapping (and, per I2, its proxy mapping), free the frame
    and any swap slot. Raises [Invalid_argument] if unmapped, [Failure]
    if the frame is pinned or I4-busy. *)

val map_device_proxy :
  Machine.t -> Proc.t -> vdev_index:int -> pdev_index:int -> writable:bool ->
  unit
(** Grant the process access to physical device-proxy page
    [pdev_index] at virtual device-proxy page [vdev_index] (§4: the
    system call that decides whether to grant the permission). *)

val frame_of_vpn : Machine.t -> Proc.t -> vpn:int -> int option
(** The frame currently backing [vpn], if resident. *)

(** {1 Paging} *)

val evict_one : Machine.t -> int
(** Run the clock algorithm, honouring pins and the I4 check, page out
    the victim, and return the freed frame — which now {e belongs to
    the caller} (it is not returned to the free list; map it or free it
    explicitly). If every transfer must first drain, waits for the
    engine. Raises {!Out_of_memory} when nothing can ever be freed. *)

val clean_page : Machine.t -> Proc.t -> vpn:int -> bool
(** Write a dirty page to backing store, clear its dirty bit and (I3)
    write-protect its proxy page. Returns [false] without cleaning when
    a DMA transfer to the page is in flight (the paper's race rule). *)

val page_in : Machine.t -> Proc.t -> vpn:int -> int
(** Bring a swapped-out page back; returns its (new) frame. *)

(** {1 Fault handling} *)

val handle_fault :
  Machine.t -> Proc.t -> Udma_mmu.Mmu.access -> vaddr:int -> unit
(** Resolve one MMU fault: demand page-in for user memory, the three §6
    cases for memory-proxy pages, the I3 write-upgrade for proxy
    protection faults. Raises {!Segfault} for illegal accesses. *)

(** {1 Traditional-DMA support} *)

val pin : Machine.t -> Proc.t -> vpn:int -> int
(** Make resident and pin; returns the frame. *)

val unpin : Machine.t -> frame:int -> unit
