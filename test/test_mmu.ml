(* Unit tests for the MMU substrate: the address-space layout with its
   proxy regions (paper Figures 2-3), page tables, TLB and the
   translation/permission machinery UDMA reuses. *)

module Layout = Udma_mmu.Layout
module Pte = Udma_mmu.Pte
module Page_table = Udma_mmu.Page_table
module Tlb = Udma_mmu.Tlb
module Mmu = Udma_mmu.Mmu

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let layout () = Layout.create ~page_size:4096 ~mem_pages:64 ~dev_pages:16

(* ---------- Layout ---------- *)

let test_layout_regions () =
  let l = layout () in
  checki "span is power of two" 0 (Layout.span l land (Layout.span l - 1));
  checkb "span covers memory" true (Layout.span l >= 64 * 4096);
  Alcotest.(check (option (of_pp Layout.pp_region)))
    "low address is memory" (Some Layout.Mem) (Layout.region_of l 0);
  Alcotest.(check (option (of_pp Layout.pp_region)))
    "proxy base" (Some Layout.Mem_proxy)
    (Layout.region_of l (Layout.mem_proxy_base l));
  Alcotest.(check (option (of_pp Layout.pp_region)))
    "device proxy base" (Some Layout.Dev_proxy)
    (Layout.region_of l (Layout.dev_proxy_base l));
  Alcotest.(check (option (of_pp Layout.pp_region)))
    "past device proxy" None
    (Layout.region_of l (Layout.dev_proxy_base l + (16 * 4096)));
  Alcotest.(check (option (of_pp Layout.pp_region)))
    "negative" None (Layout.region_of l (-4))

let test_layout_hole_above_memory () =
  (* 48 pages of memory in a 64-page span leaves a hole *)
  let l = Layout.create ~page_size:4096 ~mem_pages:48 ~dev_pages:4 in
  Alcotest.(check (option (of_pp Layout.pp_region)))
    "hole above installed memory" None
    (Layout.region_of l (50 * 4096));
  Alcotest.(check (option (of_pp Layout.pp_region)))
    "hole above proxy of installed memory" None
    (Layout.region_of l (Layout.mem_proxy_base l + (50 * 4096)))

let test_layout_proxy_roundtrip () =
  let l = layout () in
  let addr = (13 * 4096) + 52 in
  let p = Layout.proxy_of l addr in
  Alcotest.(check (option (of_pp Layout.pp_region)))
    "proxy is in proxy space" (Some Layout.Mem_proxy) (Layout.region_of l p);
  checki "round trip" addr (Layout.unproxy l p);
  checki "fixed offset" (Layout.span l) (p - addr)

let test_layout_proxy_errors () =
  let l = layout () in
  checkb "proxy of proxy rejected" true
    (try ignore (Layout.proxy_of l (Layout.mem_proxy_base l)); false
     with Invalid_argument _ -> true);
  checkb "unproxy of memory rejected" true
    (try ignore (Layout.unproxy l 0); false with Invalid_argument _ -> true)

let test_layout_dev_proxy_index () =
  let l = layout () in
  let addr = Layout.dev_proxy_addr l ~page:3 ~offset:100 in
  Alcotest.(check (pair int int)) "index round trip" (3, 100)
    (Layout.dev_proxy_index l addr);
  checkb "page out of range" true
    (try ignore (Layout.dev_proxy_addr l ~page:16 ~offset:0); false
     with Invalid_argument _ -> true);
  checkb "offset out of range" true
    (try ignore (Layout.dev_proxy_addr l ~page:0 ~offset:4096); false
     with Invalid_argument _ -> true)

let test_layout_page_helpers () =
  let l = layout () in
  checki "page of addr" 3 (Layout.page_of_addr l 12289);
  checki "offset" 1 (Layout.offset_in_page l 12289);
  checki "page base" 12288 (Layout.page_base l 12289);
  checkb "same page" true (Layout.same_page l 12289 12290);
  checkb "different page" false (Layout.same_page l 12289 16384);
  checkb "crossing" true (Layout.crosses_page l ~addr:4090 ~len:10);
  checkb "not crossing" false (Layout.crosses_page l ~addr:4090 ~len:6);
  checkb "one byte never crosses" false (Layout.crosses_page l ~addr:4095 ~len:1)

(* ---------- Page_table ---------- *)

let test_page_table_basic () =
  let pt = Page_table.create () in
  checkb "empty" true (Page_table.find pt 5 = None);
  Page_table.set pt 5 (Pte.make ~ppage:9 ());
  (match Page_table.find pt 5 with
  | Some pte -> checki "frame" 9 pte.Pte.ppage
  | None -> Alcotest.fail "expected entry");
  Page_table.remove pt 5;
  checkb "removed" true (Page_table.find pt 5 = None);
  Page_table.remove pt 5 (* idempotent *)

let test_page_table_entries_sorted () =
  let pt = Page_table.create () in
  List.iter (fun v -> Page_table.set pt v (Pte.make ~ppage:v ())) [ 9; 1; 5 ];
  Alcotest.(check (list int)) "sorted" [ 1; 5; 9 ]
    (List.map fst (Page_table.entries pt));
  checki "count" 3 (Page_table.mapped_count pt)

(* ---------- Tlb ---------- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~capacity:4 in
  checkb "cold miss" true (Tlb.lookup tlb 1 = None);
  let pte = Pte.make ~ppage:7 () in
  Tlb.insert tlb 1 pte;
  (match Tlb.lookup tlb 1 with
  | Some p -> checkb "same pte object" true (p == pte)
  | None -> Alcotest.fail "expected hit");
  checki "hits" 1 (Tlb.hits tlb);
  checki "misses" 1 (Tlb.misses tlb)

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~capacity:2 in
  Tlb.insert tlb 1 (Pte.make ~ppage:1 ());
  Tlb.insert tlb 2 (Pte.make ~ppage:2 ());
  ignore (Tlb.lookup tlb 1); (* 1 is now most recent *)
  Tlb.insert tlb 3 (Pte.make ~ppage:3 ());
  checkb "1 survives" true (Tlb.lookup tlb 1 <> None);
  checkb "2 evicted" true (Tlb.lookup tlb 2 = None);
  checkb "3 present" true (Tlb.lookup tlb 3 <> None)

let test_tlb_flush () =
  let tlb = Tlb.create ~capacity:4 in
  Tlb.insert tlb 1 (Pte.make ~ppage:1 ());
  Tlb.insert tlb 2 (Pte.make ~ppage:2 ());
  Tlb.flush_page tlb 1;
  checkb "page flushed" true (Tlb.lookup tlb 1 = None);
  checkb "other survives" true (Tlb.lookup tlb 2 <> None);
  Tlb.flush_all tlb;
  checkb "all flushed" true (Tlb.lookup tlb 2 = None)

(* ---------- Mmu ---------- *)

let mmu_rig () =
  let l = layout () in
  let mmu = Mmu.create ~layout:l ~tlb_capacity:8 in
  let pt = Page_table.create () in
  (l, mmu, pt)

let test_mmu_translate () =
  let l, mmu, pt = mmu_rig () in
  Page_table.set pt 2 (Pte.make ~ppage:5 ());
  let paddr = Mmu.translate mmu pt Mmu.Read ((2 * 4096) + 100) in
  checki "physical address" ((5 * 4096) + 100) paddr;
  checkb "first access misses TLB" false (Mmu.tlb_hit mmu);
  ignore (Mmu.translate mmu pt Mmu.Read ((2 * 4096) + 200));
  checkb "second access hits TLB" true (Mmu.tlb_hit mmu);
  ignore l

let test_mmu_faults () =
  let _, mmu, pt = mmu_rig () in
  let fault_kind f =
    try f (); None with Mmu.Fault { kind; _ } -> Some kind
  in
  checkb "unmapped" true
    (fault_kind (fun () -> ignore (Mmu.translate mmu pt Mmu.Read 4096))
     = Some Mmu.Not_present);
  Page_table.set pt 1 (Pte.make ~writable:false ~ppage:3 ());
  checkb "read ok" true
    (fault_kind (fun () -> ignore (Mmu.translate mmu pt Mmu.Read 4096)) = None);
  checkb "write to read-only" true
    (fault_kind (fun () -> ignore (Mmu.translate mmu pt Mmu.Write 4096))
     = Some Mmu.Protection);
  checkb "out of range" true
    (fault_kind (fun () -> ignore (Mmu.translate mmu pt Mmu.Read max_int))
     = Some Mmu.Out_of_range)

let test_mmu_dirty_referenced () =
  let _, mmu, pt = mmu_rig () in
  let pte = Pte.make ~ppage:3 () in
  Page_table.set pt 1 pte;
  ignore (Mmu.translate mmu pt Mmu.Read 4096);
  checkb "referenced set" true pte.Pte.referenced;
  checkb "read does not dirty" false pte.Pte.dirty;
  ignore (Mmu.translate mmu pt Mmu.Write 4096);
  checkb "write dirties" true pte.Pte.dirty

let test_mmu_stale_tlb_falls_back () =
  let _, mmu, pt = mmu_rig () in
  let pte = Pte.make ~ppage:3 () in
  Page_table.set pt 1 pte;
  ignore (Mmu.translate mmu pt Mmu.Read 4096); (* cached *)
  (* the kernel pages it out without flushing the TLB *)
  pte.Pte.present <- false;
  checkb "stale entry does not translate" true
    (try ignore (Mmu.translate mmu pt Mmu.Read 4096); false
     with Mmu.Fault { kind = Mmu.Not_present; _ } -> true)

let test_mmu_probe_no_side_effects () =
  let _, mmu, pt = mmu_rig () in
  let pte = Pte.make ~ppage:3 () in
  Page_table.set pt 1 pte;
  (match Mmu.probe mmu pt Mmu.Read 4096 with
  | Ok paddr -> checki "paddr" (3 * 4096) paddr
  | Error _ -> Alcotest.fail "expected Ok");
  checkb "probe leaves referenced clear" false pte.Pte.referenced;
  checkb "probe write check" true
    (Mmu.probe mmu pt Mmu.Write 4096 = Ok (3 * 4096));
  Alcotest.(check bool) "probe error" true
    (Mmu.probe mmu pt Mmu.Read (90 * 4096 * 1000) = Error Mmu.Out_of_range)

let test_mmu_proxy_translation () =
  let l, mmu, pt = mmu_rig () in
  (* map a proxy page exactly as the kernel would: PROXY(v) -> PROXY(p) *)
  let span_pages = Layout.span l / 4096 in
  Page_table.set pt 2 (Pte.make ~ppage:5 ());
  Page_table.set pt (2 + span_pages) (Pte.make ~ppage:(5 + span_pages) ());
  let proxy_vaddr = Layout.proxy_of l ((2 * 4096) + 8) in
  checki "proxy physical = PROXY(frame)"
    (Layout.proxy_of l ((5 * 4096) + 8))
    (Mmu.translate mmu pt Mmu.Read proxy_vaddr)

let () =
  Alcotest.run "udma_mmu"
    [
      ( "layout",
        [
          Alcotest.test_case "regions" `Quick test_layout_regions;
          Alcotest.test_case "hole above memory" `Quick test_layout_hole_above_memory;
          Alcotest.test_case "proxy roundtrip" `Quick test_layout_proxy_roundtrip;
          Alcotest.test_case "proxy errors" `Quick test_layout_proxy_errors;
          Alcotest.test_case "device proxy index" `Quick test_layout_dev_proxy_index;
          Alcotest.test_case "page helpers" `Quick test_layout_page_helpers;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "basic" `Quick test_page_table_basic;
          Alcotest.test_case "entries sorted" `Quick test_page_table_entries_sorted;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate" `Quick test_mmu_translate;
          Alcotest.test_case "faults" `Quick test_mmu_faults;
          Alcotest.test_case "dirty/referenced" `Quick test_mmu_dirty_referenced;
          Alcotest.test_case "stale TLB fallback" `Quick test_mmu_stale_tlb_falls_back;
          Alcotest.test_case "probe has no side effects" `Quick
            test_mmu_probe_no_side_effects;
          Alcotest.test_case "proxy translation" `Quick test_mmu_proxy_translation;
        ] );
    ]
