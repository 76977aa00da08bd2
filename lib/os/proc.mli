(** A simulated user process. *)

type state = Ready | Running | Blocked | Exited

type t = {
  pid : int;
  name : string;
  page_table : Udma_mmu.Page_table.t;
  mutable state : state;
  mutable brk_vpn : int;      (** next free virtual page for allocations *)
  mutable faults : int;       (** page faults taken *)
  mutable proxy_faults : int; (** faults on proxy pages (§6 demand mapping) *)
  mutable cpu_cycles : int;   (** cycles charged while this process ran *)
}

val make : pid:int -> name:string -> t
(** A fresh [Ready] process with an empty page table; allocations start
    at virtual page 1 (page 0 is never mapped, so null dereferences
    fault). *)
