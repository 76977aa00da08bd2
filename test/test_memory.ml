(* Unit tests for the physical-memory substrate. *)

module Phys_mem = Udma_memory.Phys_mem
module Frame_allocator = Udma_memory.Frame_allocator
module Backing_store = Udma_memory.Backing_store

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let mem () = Phys_mem.create ~frames:8 ~page_size:4096

(* ---------- Phys_mem ---------- *)

let test_mem_geometry () =
  let m = mem () in
  checki "frames" 8 (Phys_mem.frames m);
  checki "page size" 4096 (Phys_mem.page_size m);
  checki "size" 32768 (Phys_mem.size m);
  checki "frame base" 8192 (Phys_mem.frame_base m 2);
  checki "frame of addr" 2 (Phys_mem.frame_of_addr m 8195)

let test_mem_bad_create () =
  Alcotest.check_raises "zero frames"
    (Invalid_argument "Phys_mem.create: frames must be positive") (fun () ->
      ignore (Phys_mem.create ~frames:0 ~page_size:4096));
  Alcotest.check_raises "non-power-of-two page"
    (Invalid_argument
       "Phys_mem.create: page_size must be a positive power of two")
    (fun () -> ignore (Phys_mem.create ~frames:1 ~page_size:3000))

let test_mem_bytes () =
  let m = mem () in
  Phys_mem.write_byte m 100 0xAB;
  checki "read back" 0xAB (Phys_mem.read_byte m 100);
  Phys_mem.write_byte m 101 0x1FF;
  checki "masked to a byte" 0xFF (Phys_mem.read_byte m 101);
  checki "zero initialised" 0 (Phys_mem.read_byte m 200)

let test_mem_words_little_endian () =
  let m = mem () in
  Phys_mem.write_word m 16 0x11223344l;
  checki "LSB first" 0x44 (Phys_mem.read_byte m 16);
  checki "MSB last" 0x11 (Phys_mem.read_byte m 19);
  Alcotest.check Alcotest.int32 "word read" 0x11223344l (Phys_mem.read_word m 16)

let test_mem_word_alignment () =
  let m = mem () in
  Alcotest.check_raises "unaligned read"
    (Invalid_argument "Phys_mem.read_word: unaligned address 0x2") (fun () ->
      ignore (Phys_mem.read_word m 2))

let test_mem_bounds () =
  let m = mem () in
  let check_oob f = try f (); false with Invalid_argument _ -> true in
  checkb "read past end" true (check_oob (fun () -> ignore (Phys_mem.read_byte m 32768)));
  checkb "negative" true (check_oob (fun () -> ignore (Phys_mem.read_byte m (-1))));
  checkb "region straddling end" true
    (check_oob (fun () -> ignore (Phys_mem.read_bytes m ~addr:32760 ~len:16)))

let test_mem_bulk () =
  let m = mem () in
  let data = Bytes.init 300 (fun i -> Char.chr (i land 0xff)) in
  Phys_mem.write_bytes m ~addr:1000 data;
  Alcotest.check Alcotest.bytes "round trip" data
    (Phys_mem.read_bytes m ~addr:1000 ~len:300)

let test_mem_blit_overlap () =
  let m = mem () in
  let data = Bytes.of_string "abcdefgh" in
  Phys_mem.write_bytes m ~addr:0 data;
  (* overlapping forward copy must behave like memmove *)
  Phys_mem.blit m ~src:0 ~dst:2 ~len:8;
  Alcotest.check Alcotest.bytes "memmove semantics"
    (Bytes.of_string "ababcdefgh")
    (Phys_mem.read_bytes m ~addr:0 ~len:10)

let test_mem_fill_frame () =
  let m = mem () in
  Phys_mem.fill_frame m ~frame:1 0x5A;
  checki "first byte" 0x5A (Phys_mem.read_byte m 4096);
  checki "last byte" 0x5A (Phys_mem.read_byte m 8191);
  checki "neighbour untouched" 0 (Phys_mem.read_byte m 8192)

(* Creating memory allocates the frame table and the one shared zero
   page, never the frames themselves: 512 frames of 4 KB stay within
   2,048 words (one zero-filled flat block of them is 262 k). *)
let test_mem_create_allocation () =
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  let w0 = words () in
  let m = Phys_mem.create ~frames:512 ~page_size:4096 in
  let used = words () -. w0 in
  Printf.printf "phys_mem guard: create 512 x 4 KB allocated %.0f words\n" used;
  checki "no frame of its own" 0 (Phys_mem.materialized m);
  if used > 2048.0 then
    Alcotest.failf "Phys_mem.create 512 x 4 KB allocated %.0f words > 2048" used

(* Only a stored non-zero byte gives a frame its own page; zero stores
   leave it shared, and filling with 0 shares it again. *)
let test_mem_zero_page () =
  let m = mem () in
  Phys_mem.write_byte m 100 0;
  Phys_mem.write_word m 4096 0l;
  Phys_mem.write_bytes m ~addr:8000 (Bytes.make 500 '\000');
  Phys_mem.blit m ~src:0 ~dst:20000 ~len:5000;
  checki "zero stores share" 0 (Phys_mem.materialized m);
  Phys_mem.write_bytes m ~addr:4090 (Bytes.of_string "\000\000\000\000\000\000\001");
  checki "first non-zero byte" 1 (Phys_mem.materialized m);
  checki "it landed" 1 (Phys_mem.read_byte m 4096);
  Phys_mem.blit m ~src:4096 ~dst:(3 * 4096) ~len:1;
  Phys_mem.fill_frame m ~frame:5 0x5A;
  checki "blit and fill give pages" 3 (Phys_mem.materialized m);
  Phys_mem.fill_frame m ~frame:1 0;
  checki "fill 0 shares again" 2 (Phys_mem.materialized m);
  checki "and reads zero" 0 (Phys_mem.read_byte m 4096);
  checki "the shared page stayed zero" 0 (Phys_mem.read_byte m (2 * 4096))

(* ---------- Frame_allocator ---------- *)

let test_alloc_lowest_first () =
  let a = Frame_allocator.create ~frames:8 ~reserved:2 in
  checki "total" 6 (Frame_allocator.total a);
  checki "first" 2 (Frame_allocator.alloc_exn a);
  checki "second" 3 (Frame_allocator.alloc_exn a);
  Frame_allocator.free a 2;
  checki "reuse lowest" 2 (Frame_allocator.alloc_exn a)

let test_alloc_exhaustion () =
  let a = Frame_allocator.create ~frames:4 ~reserved:1 in
  checki "f1" 1 (Frame_allocator.alloc_exn a);
  checki "f2" 2 (Frame_allocator.alloc_exn a);
  checki "f3" 3 (Frame_allocator.alloc_exn a);
  checkb "exhausted" true (Frame_allocator.alloc a = None);
  checki "free count" 0 (Frame_allocator.free_count a)

let test_alloc_double_free () =
  let a = Frame_allocator.create ~frames:4 ~reserved:1 in
  let f = Frame_allocator.alloc_exn a in
  Frame_allocator.free a f;
  Alcotest.check_raises "double free"
    (Invalid_argument (Printf.sprintf "Frame_allocator.free: double free of frame %d" f))
    (fun () -> Frame_allocator.free a f)

let test_alloc_reserved_protected () =
  let a = Frame_allocator.create ~frames:4 ~reserved:2 in
  checkb "reserved not free" false (Frame_allocator.is_free a 0);
  Alcotest.check_raises "cannot free reserved"
    (Invalid_argument "Frame_allocator.free: frame 0 out of range") (fun () ->
      Frame_allocator.free a 0)

let test_alloc_no_duplicates_under_churn () =
  let a = Frame_allocator.create ~frames:16 ~reserved:2 in
  let live = Hashtbl.create 16 in
  let rng = Udma_sim.Rng.create 99 in
  for _ = 1 to 2000 do
    if Udma_sim.Rng.bool rng && Hashtbl.length live < 14 then begin
      match Frame_allocator.alloc a with
      | Some f ->
          checkb "frame not already live" false (Hashtbl.mem live f);
          Hashtbl.replace live f ()
      | None -> ()
    end
    else
      match Hashtbl.fold (fun f () _ -> Some f) live None with
      | Some f ->
          Hashtbl.remove live f;
          Frame_allocator.free a f
      | None -> ()
  done;
  checki "accounting consistent"
    (14 - Hashtbl.length live)
    (Frame_allocator.free_count a)

(* ---------- Backing_store ---------- *)

let page n seed = Bytes.init n (fun i -> Char.chr ((i * seed) land 0xff))

let test_store_roundtrip () =
  let b = Backing_store.create ~page_size:4096 in
  let s1 = Backing_store.store b (page 4096 3) in
  let s2 = Backing_store.store b (page 4096 7) in
  checki "slots used" 2 (Backing_store.slots_used b);
  Alcotest.check Alcotest.bytes "slot 1" (page 4096 3) (Backing_store.load b s1);
  Alcotest.check Alcotest.bytes "slot 2" (page 4096 7) (Backing_store.load b s2)

let test_store_overwrite () =
  let b = Backing_store.create ~page_size:4096 in
  let s = Backing_store.store b (page 4096 1) in
  Backing_store.overwrite b s (page 4096 9);
  Alcotest.check Alcotest.bytes "overwritten" (page 4096 9) (Backing_store.load b s)

let test_store_release () =
  let b = Backing_store.create ~page_size:4096 in
  let s = Backing_store.store b (page 4096 1) in
  Backing_store.release b s;
  checki "slot gone" 0 (Backing_store.slots_used b);
  checkb "load after release raises" true
    (try ignore (Backing_store.load b s); false
     with Invalid_argument _ -> true)

let test_store_size_check () =
  let b = Backing_store.create ~page_size:4096 in
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Backing_store.store: expected 4096 bytes, got 100")
    (fun () -> ignore (Backing_store.store b (Bytes.make 100 'x')))

let test_store_isolation () =
  let b = Backing_store.create ~page_size:64 in
  let src = page 64 2 in
  let s = Backing_store.store b src in
  Bytes.set src 0 'Z';
  checkb "store copied" true (Bytes.get (Backing_store.load b s) 0 <> 'Z');
  let out = Backing_store.load b s in
  Bytes.set out 1 'Q';
  checkb "load copied" true (Bytes.get (Backing_store.load b s) 1 <> 'Q')

let () =
  Alcotest.run "udma_memory"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "geometry" `Quick test_mem_geometry;
          Alcotest.test_case "bad create" `Quick test_mem_bad_create;
          Alcotest.test_case "bytes" `Quick test_mem_bytes;
          Alcotest.test_case "little-endian words" `Quick
            test_mem_words_little_endian;
          Alcotest.test_case "word alignment" `Quick test_mem_word_alignment;
          Alcotest.test_case "bounds" `Quick test_mem_bounds;
          Alcotest.test_case "bulk read/write" `Quick test_mem_bulk;
          Alcotest.test_case "overlapping blit" `Quick test_mem_blit_overlap;
          Alcotest.test_case "fill frame" `Quick test_mem_fill_frame;
          Alcotest.test_case "zero page" `Quick test_mem_zero_page;
          Alcotest.test_case "create allocation bounded" `Quick
            test_mem_create_allocation;
        ] );
      ( "frame_allocator",
        [
          Alcotest.test_case "lowest first" `Quick test_alloc_lowest_first;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "double free" `Quick test_alloc_double_free;
          Alcotest.test_case "reserved protected" `Quick
            test_alloc_reserved_protected;
          Alcotest.test_case "no duplicates under churn" `Quick
            test_alloc_no_duplicates_under_churn;
        ] );
      ( "backing_store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "overwrite" `Quick test_store_overwrite;
          Alcotest.test_case "release" `Quick test_store_release;
          Alcotest.test_case "size check" `Quick test_store_size_check;
          Alcotest.test_case "copy isolation" `Quick test_store_isolation;
        ] );
    ]
