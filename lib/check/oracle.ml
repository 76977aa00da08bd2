module Layout = Udma_mmu.Layout
module Page_table = Udma_mmu.Page_table
module Pte = Udma_mmu.Pte
module Sm = Udma.State_machine
module Udma_engine = Udma.Udma_engine
module Dma_engine = Udma_dma.Dma_engine
module M = Udma_os.Machine
module Proc = Udma_os.Proc

type violation = { invariant : M.invariant; detail : string }

exception Violation of violation

let pp_violation ppf v =
  Format.fprintf ppf "%a violated: %s" M.pp_invariant v.invariant v.detail

let () =
  Printexc.register_printer (function
    | Violation v -> Some (Format.asprintf "Oracle.%a" pp_violation v)
    | _ -> None)

let violation invariant fmt =
  Format.kasprintf (fun detail -> Some { invariant; detail }) fmt

(* First Some wins; later thunks are not evaluated. *)
let rec first_of = function
  | [] -> None
  | f :: rest -> ( match f () with Some _ as v -> v | None -> first_of rest)

let proxy_range (m : M.t) =
  let first = M.proxy_vpn m 0 in
  let dev_base =
    Layout.page_of_addr m.M.layout (Layout.dev_proxy_base m.M.layout)
  in
  (first, dev_base)

(* Iterate every present memory-proxy PTE of every process. *)
let fold_proxy_ptes (m : M.t) f =
  let first, dev_base = proxy_range m in
  List.fold_left
    (fun acc proc ->
      if acc <> None then acc
      else
        List.fold_left
          (fun acc (vpn, (pte : Pte.t)) ->
            if acc <> None then acc
            else if pte.Pte.present && vpn >= first && vpn < dev_base then
              f proc ~real_vpn:(vpn - first) pte
            else acc)
          acc
          (Page_table.entries proc.Proc.page_table))
    None m.M.procs

let pte_of m ~pid ~vpn =
  match M.find_proc m ~pid with
  | None -> None
  | Some p -> Page_table.find p.Proc.page_table vpn

(* The paging code's notion of dirty under the machine's I3 policy. *)
let effective_dirty (m : M.t) proc ~vpn (pte : Pte.t) =
  pte.Pte.dirty
  ||
  match m.M.i3_policy with
  | M.Write_upgrade -> false
  | M.Proxy_dirty_union -> (
      match Page_table.find proc.Proc.page_table (M.proxy_vpn m vpn) with
      | Some p -> p.Pte.dirty
      | None -> false)

(* ---------- I1: atomicity across context switches ---------- *)

let post_switch (m : M.t) =
  match m.M.udma with
  | None -> None
  | Some u -> (
      match Udma_engine.state u with
      | Sm.Dest_loaded d ->
          violation `I1
            "latched DESTINATION %a:%#x (%d bytes) survived a context \
             switch%s — the switch did not store an Inval"
            Sm.pp_space d.Sm.dest_space d.Sm.dest_proxy d.Sm.nbytes
            (match m.M.current with
            | Some p -> Printf.sprintf " to pid %d" p.Proc.pid
            | None -> "")
      | Sm.Idle | Sm.Transferring _ -> None)

(* ---------- I2: proxy mappings mirror real mappings ---------- *)

let check_i2 (m : M.t) =
  fold_proxy_ptes m (fun proc ~real_vpn pte ->
      match Page_table.find proc.Proc.page_table real_vpn with
      | Some real when real.Pte.present ->
          if pte.Pte.ppage <> M.proxy_ppage m real.Pte.ppage then
            violation `I2
              "pid %d vpn %d: proxy mapping points at physical page %d but \
               the real page is in frame %d (proxy of frame is %d)"
              proc.Proc.pid real_vpn pte.Pte.ppage real.Pte.ppage
              (M.proxy_ppage m real.Pte.ppage)
          else None
      | Some _ ->
          violation `I2
            "pid %d vpn %d: proxy mapping outlived its real mapping (real \
             page is swapped out)"
            proc.Proc.pid real_vpn
      | None ->
          violation `I2
            "pid %d vpn %d: proxy mapping outlived its real mapping \
             (real page is unmapped)"
            proc.Proc.pid real_vpn)

(* The owner entry a frame caches must be the page-table entry its
   (pid, vpn) names: the deposit dirties that cached entry. *)
let stale_owner inv frame (o : M.owner) =
  violation inv
    "frame %d's owner entry caches a PTE that is not pid %d vpn %d's \
     page-table entry"
    frame o.M.pid o.M.vpn

(* ---------- I3: content consistency ---------- *)

(* (a) write-upgrade policy: a writable proxy page implies a dirty real
   page (otherwise the pageout daemon could clean the page and lose the
   data a transfer is about to deposit). *)
let check_i3_static (m : M.t) =
  match m.M.i3_policy with
  | M.Proxy_dirty_union -> None
  | M.Write_upgrade ->
      fold_proxy_ptes m (fun proc ~real_vpn pte ->
          if not pte.Pte.writable then None
          else
            match Page_table.find proc.Proc.page_table real_vpn with
            | Some real when real.Pte.present && not real.Pte.dirty ->
                violation `I3
                  "pid %d vpn %d: proxy page is writable but the real page \
                   is clean — incoming data could land on a page the pager \
                   believes unchanged"
                  proc.Proc.pid real_vpn
            | Some _ | None -> None)

(* (b) every user-initiated transfer destined for a mapped user page
   finds the page dirty before any data lands. *)
let check_i3_inflight (m : M.t) =
  match m.M.udma with
  | None -> None
  | Some u ->
      let page_size = Layout.page_size m.M.layout in
      (* every element of a shaped request is its own destination *)
      first_of
        (List.concat_map
           (fun (v : Udma_engine.req_view) ->
             List.map
               (fun (e : Udma_dma.Descriptor.element) () ->
                 match (v.Udma_engine.v_priority, e.dst) with
                 | Udma_engine.System, _ | _, Dma_engine.Dev _ -> None
                 | Udma_engine.User, Dma_engine.Mem a -> (
                     let frame = a / page_size in
                     let o = M.owner m frame in
                     if o == M.no_owner then None (* replacement is I4's domain *)
                     else
                       let pid = o.M.pid and vpn = o.M.vpn in
                       match (M.find_proc m ~pid, pte_of m ~pid ~vpn) with
                       | _, Some pte when pte != o.M.pte -> stale_owner `I3 frame o
                       | Some proc, Some pte
                         when pte.Pte.present
                              && not (effective_dirty m proc ~vpn pte) ->
                           violation `I3
                             "pid %d vpn %d (frame %d): UDMA destination \
                              of an outstanding transfer but the page is \
                              not marked dirty"
                             pid vpn frame
                       | _ -> None))
               v.Udma_engine.v_elements)
           (Udma_engine.outstanding_views u))

let check_i3 (m : M.t) = first_of [ (fun () -> check_i3_static m);
                            (fun () -> check_i3_inflight m) ]

(* ---------- I4: no frame named by the engine is ever replaced ---------- *)

let frame_still_backs m frame =
  let o = M.owner m frame in
  if o == M.no_owner then
    violation `I4
      "frame %d is referenced by the UDMA engine but no longer backs any \
       user page — it was replaced mid-transfer"
      frame
  else
    match pte_of m ~pid:o.M.pid ~vpn:o.M.vpn with
    | Some pte when pte != o.M.pte -> stale_owner `I4 frame o
    | Some pte when pte.Pte.present && pte.Pte.ppage = frame -> None
    | Some _ | None ->
        violation `I4
          "frame %d is referenced by the UDMA engine but pid %d vpn %d no \
           longer maps it"
          frame o.M.pid o.M.vpn

let check_i4 (m : M.t) =
  match m.M.udma with
  | None -> None
  | Some u ->
      let outstanding = Udma_engine.outstanding_frames u in
      let counts = Hashtbl.create 8 in
      List.iter
        (fun f ->
          Hashtbl.replace counts f
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts f)))
        outstanding;
      let expected =
        List.sort compare
          (Hashtbl.fold (fun f c acc -> (f, c) :: acc) counts [])
      in
      let actual = Udma_engine.refcounts_snapshot u in
      if expected <> actual then
        violation `I4
          "per-frame reference counters disagree with outstanding requests \
           (counters: %s; requests reference: %s)"
          (String.concat ","
             (List.map (fun (f, c) -> Printf.sprintf "%d:%d" f c) actual))
          (String.concat ","
             (List.map (fun (f, c) -> Printf.sprintf "%d:%d" f c) expected))
      else
        let referenced =
          (* frames of outstanding requests, plus a latched mem DESTINATION *)
          List.sort_uniq compare
            (List.map fst expected
            @
            match Udma_engine.state u with
            | Sm.Dest_loaded { dest_proxy; dest_space = Sm.Mem_space; _ } ->
                [ Layout.page_of_addr m.M.layout
                    (Layout.unproxy m.M.layout dest_proxy) ]
            | Sm.Dest_loaded _ | Sm.Idle | Sm.Transferring _ -> [])
        in
        first_of
          (List.map (fun f () -> frame_still_backs m f) referenced)

(* ---------- combined ---------- *)

let check_now (m : M.t) =
  first_of
    [ (fun () -> check_i2 m); (fun () -> check_i3 m);
      (fun () -> check_i4 m) ]

(* ---------- network invariants (router flow control) ---------- *)

let check_n1 router =
  match Udma_shrimp.Router.check_credits router with
  | None -> None
  | Some detail -> Some { invariant = `N1; detail }

let check_n2 router =
  match Udma_shrimp.Router.check_arbitration router with
  | None -> None
  | Some detail -> Some { invariant = `N2; detail }

let check_f1 router =
  match Udma_shrimp.Router.check_flits router with
  | None -> None
  | Some detail -> Some { invariant = `F1; detail }

let check_router router =
  first_of
    [ (fun () -> check_n1 router); (fun () -> check_n2 router);
      (fun () -> check_f1 router) ]

(* ---------- protection (cross-tenant isolation) ---------- *)

let check_i5 backend =
  match Udma_protect.Backend.check backend with
  | None -> None
  | Some detail -> Some { invariant = `I5; detail }
