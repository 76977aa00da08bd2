type access = Read | Write

let pp_access ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"

type fault_kind = Not_present | Protection | Out_of_range

let pp_fault_kind ppf = function
  | Not_present -> Format.pp_print_string ppf "not-present"
  | Protection -> Format.pp_print_string ppf "protection"
  | Out_of_range -> Format.pp_print_string ppf "out-of-range"

exception Fault of { vaddr : int; access : access; kind : fault_kind }

let () =
  Printexc.register_printer (function
    | Fault { vaddr; access; kind } ->
        Some
          (Format.asprintf "Mmu.Fault(%#x, %a, %a)" vaddr pp_access access
             pp_fault_kind kind)
    | _ -> None)

type t = { layout : Layout.t; tlb : Tlb.t; mutable tlb_hit : bool }

let create ~layout ~tlb_capacity =
  { layout; tlb = Tlb.create ~capacity:tlb_capacity; tlb_hit = false }

let tlb t = t.tlb

let tlb_hit t = t.tlb_hit

let fault vaddr access kind = raise (Fault { vaddr; access; kind })

(* The reference through a usable PTE: permission check, R/M bits,
   physical address. *)
let access_through t pte access vaddr ~tlb_hit =
  (match access with
  | Read -> ()
  | Write -> if not pte.Pte.writable then fault vaddr access Protection);
  pte.Pte.referenced <- true;
  (match access with
  | Write -> pte.Pte.dirty <- true
  | Read -> ());
  t.tlb_hit <- tlb_hit;
  Layout.addr_of_page t.layout pte.Pte.ppage
  + Layout.offset_in_page t.layout vaddr

(* The page-table walk; [refill] caches its result in the TLB. *)
let walk t pt access vaddr vpn ~refill =
  match Page_table.find pt vpn with
  | Some pte when pte.Pte.present ->
      if refill then Tlb.insert t.tlb vpn pte;
      access_through t pte access vaddr ~tlb_hit:false
  | Some _ | None -> fault vaddr access Not_present

(* A TLB hit whose entry is stale (not present) falls back to the walk
   after flushing; the kernel may have paged the frame out. *)
let translate t pt access vaddr =
  (match Layout.region_of t.layout vaddr with
  | Some _ -> ()
  | None -> fault vaddr access Out_of_range);
  let vpn = Layout.page_of_addr t.layout vaddr in
  match Tlb.find t.tlb vpn with
  | pte when pte.Pte.present -> access_through t pte access vaddr ~tlb_hit:true
  | _ ->
      Tlb.flush_page t.tlb vpn;
      walk t pt access vaddr vpn ~refill:false
  | exception Not_found -> walk t pt access vaddr vpn ~refill:true

let probe t pt access vaddr =
  match Layout.region_of t.layout vaddr with
  | None -> Error Out_of_range
  | Some _ -> (
      let vpn = Layout.page_of_addr t.layout vaddr in
      match Page_table.find pt vpn with
      | None -> Error Not_present
      | Some pte when not pte.Pte.present -> Error Not_present
      | Some pte -> (
          match access with
          | Write when not pte.Pte.writable -> Error Protection
          | Read | Write ->
              Ok
                (Layout.addr_of_page t.layout pte.Pte.ppage
                + Layout.offset_in_page t.layout vaddr)))

let rehit t vaddr k =
  Tlb.rehit t.tlb (Layout.page_of_addr t.layout vaddr) k
  && begin
       t.tlb_hit <- true;
       true
     end

let flush_tlb t = Tlb.flush_all t.tlb

let flush_tlb_page t ~vpn = Tlb.flush_page t.tlb vpn
