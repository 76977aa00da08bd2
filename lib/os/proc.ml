type state = Ready | Running | Blocked | Exited

type t = {
  pid : int;
  name : string;
  page_table : Udma_mmu.Page_table.t;
  mutable state : state;
  mutable brk_vpn : int;
  mutable faults : int;
  mutable proxy_faults : int;
  mutable cpu_cycles : int;
}

let make ~pid ~name =
  {
    pid;
    name;
    page_table = Udma_mmu.Page_table.create ();
    state = Ready;
    brk_vpn = 1;
    faults = 0;
    proxy_faults = 0;
    cpu_cycles = 0;
  }
