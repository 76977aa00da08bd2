(* Unit tests for the UDMA core: the status word, the hardware state
   machine of Figure 5 (tested exhaustively), and the engine at the
   physical-bus level, with no OS in the way. *)

module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Phys_mem = Udma_memory.Phys_mem
module Bus = Udma_dma.Bus
module Device = Udma_dma.Device
module Dma_engine = Udma_dma.Dma_engine
module Status = Udma.Status
module Sm = Udma.State_machine
module Udma_engine = Udma.Udma_engine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let status_t = Alcotest.testable Status.pp Status.equal

(* the engine answers a load with the encoded word; tests read it as
   the record *)
let load_status udma ~paddr = Status.decode (Udma_engine.handle_load udma ~paddr)

(* ---------- Status ---------- *)

let test_status_encode_decode () =
  let s =
    Status.make ~started:true ~transferring:true ~matches:true
      ~remaining_bytes:12345 ~device_error:5 ()
  in
  Alcotest.check status_t "roundtrip" s (Status.decode (Status.encode s));
  Alcotest.check status_t "idle roundtrip" Status.idle
    (Status.decode (Status.encode Status.idle))

let test_status_initiation_flag_polarity () =
  (* the paper's INITIATION FLAG is zero when the access started a
     transfer *)
  let started = Status.make ~started:true () in
  checki "bit0 clear when started" 0
    (Int32.to_int (Status.encode started) land 1);
  checki "bit0 set when not" 1 (Int32.to_int (Status.encode Status.idle) land 1)

let test_status_remaining_saturates () =
  let s = Status.make ~remaining_bytes:Status.max_remaining () in
  checki "max representable" Status.max_remaining
    (Status.decode (Status.encode s)).Status.remaining_bytes

let test_status_predicates () =
  checkb "ok" true (Status.ok (Status.make ~started:true ()));
  checkb "not ok with device error" false
    (Status.ok (Status.make ~started:true ~device_error:1 ()));
  checkb "hard error on wrong space" true
    (Status.hard_error (Status.make ~wrong_space:true ()));
  checkb "busy is not a hard error" false
    (Status.hard_error (Status.make ~transferring:true ()))

let test_status_validation () =
  checkb "device_error range" true
    (try ignore (Status.make ~device_error:16 ()); false
     with Invalid_argument _ -> true);
  checkb "negative remaining" true
    (try ignore (Status.make ~remaining_bytes:(-1) ()); false
     with Invalid_argument _ -> true)

(* ---------- State machine: exhaustive Figure 5 ---------- *)

let dest =
  Sm.{ dest_proxy = 0x1000; dest_space = Dev_space; nbytes = 64; shape = Flat }
let dest2 =
  Sm.{ dest_proxy = 0x2000; dest_space = Dev_space; nbytes = 128; shape = Flat }

let transferring =
  Sm.Transferring { src_proxy = 0x9000; src_space = Sm.Mem_space; dest }

let sm_t = Alcotest.testable Sm.pp_state (fun a b -> a = b)
let action_t = Alcotest.testable Sm.pp_action (fun a b -> a = b)

let test_sm_store_from_idle () =
  let s, a =
    Sm.step Sm.Idle (Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = 64 })
  in
  Alcotest.check sm_t "latches" (Sm.Dest_loaded dest) s;
  Alcotest.check action_t "action" Sm.Latch_dest a

let test_sm_inval_from_idle () =
  let s, a =
    Sm.step Sm.Idle (Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = -1 })
  in
  Alcotest.check sm_t "stays idle" Sm.Idle s;
  Alcotest.check action_t "inval" Sm.Invalidated a

let test_sm_zero_count_is_inval () =
  let _, a =
    Sm.step Sm.Idle (Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = 0 })
  in
  Alcotest.check action_t "zero is not positive" Sm.Invalidated a

let test_sm_store_overwrites_dest () =
  let s, a =
    Sm.step (Sm.Dest_loaded dest)
      (Sm.Store { proxy = 0x2000; space = Sm.Dev_space; value = 128 })
  in
  Alcotest.check sm_t "overwritten" (Sm.Dest_loaded dest2) s;
  Alcotest.check action_t "latch" Sm.Latch_dest a

let test_sm_inval_from_destloaded () =
  let s, a =
    Sm.step (Sm.Dest_loaded dest)
      (Sm.Store { proxy = 0x1000; space = Sm.Mem_space; value = -5 })
  in
  Alcotest.check sm_t "back to idle" Sm.Idle s;
  Alcotest.check action_t "inval" Sm.Invalidated a

let test_sm_load_starts_transfer () =
  let s, a =
    Sm.step (Sm.Dest_loaded dest)
      (Sm.Load { proxy = 0x9000; space = Sm.Mem_space })
  in
  Alcotest.check sm_t "transferring" transferring s;
  Alcotest.check action_t "start"
    (Sm.Start { src_proxy = 0x9000; src_space = Sm.Mem_space; dest })
    a

let test_sm_badload () =
  (* load from the same space as the destination: mem-to-mem or
     dev-to-dev request *)
  let s, a =
    Sm.step (Sm.Dest_loaded dest)
      (Sm.Load { proxy = 0x9000; space = Sm.Dev_space })
  in
  Alcotest.check sm_t "reset to idle" Sm.Idle s;
  Alcotest.check action_t "bad load" Sm.Bad_load a

let test_sm_load_in_idle_probes () =
  let s, a = Sm.step Sm.Idle (Sm.Load { proxy = 0; space = Sm.Mem_space }) in
  Alcotest.check sm_t "stays" Sm.Idle s;
  Alcotest.check action_t "probe" Sm.Status_probe a

let test_sm_transferring_ignores_stores () =
  (* "if no transition is depicted ... that event does not cause a
     state transition" — a started transfer is never disturbed *)
  List.iter
    (fun value ->
      let s, a =
        Sm.step transferring
          (Sm.Store { proxy = 0x3000; space = Sm.Dev_space; value })
      in
      Alcotest.check sm_t "unchanged" transferring s;
      Alcotest.check action_t "ignored" Sm.No_action a)
    [ 64; -1; 0 ]

let test_sm_transferring_load_probes () =
  let s, a = Sm.step transferring (Sm.Load { proxy = 0x9000; space = Sm.Mem_space }) in
  Alcotest.check sm_t "unchanged" transferring s;
  Alcotest.check action_t "probe" Sm.Status_probe a

let test_sm_done () =
  let s, a = Sm.step transferring Sm.Done in
  Alcotest.check sm_t "idle" Sm.Idle s;
  Alcotest.check action_t "completed" Sm.Completed a;
  (* Done in other states is a no-op *)
  let s, a = Sm.step Sm.Idle Sm.Done in
  Alcotest.check sm_t "idle stays" Sm.Idle s;
  Alcotest.check action_t "no-op" Sm.No_action a;
  let s, a = Sm.step (Sm.Dest_loaded dest) Sm.Done in
  Alcotest.check sm_t "destloaded stays" (Sm.Dest_loaded dest) s;
  Alcotest.check action_t "no-op" Sm.No_action a

(* ---------- shape words (strided / scatter-gather refinement) ---------- *)

let strided_word = Sm.encode_strided_word ~stride:512 ~chunk:64
let sg_word len = Sm.encode_sg_word ~len

let test_shape_word_roundtrip () =
  (match Sm.decode_shape_word strided_word with
  | Some (`Strided (s, c)) ->
      checki "stride" 512 s;
      checki "chunk" 64 c
  | _ -> Alcotest.fail "strided word did not decode");
  (match Sm.decode_shape_word (sg_word 256) with
  | Some (`Sg l) -> checki "len" 256 l
  | _ -> Alcotest.fail "sg word did not decode");
  (* extremes of the field widths *)
  (match
     Sm.decode_shape_word
       (Sm.encode_strided_word ~stride:Sm.max_stride ~chunk:Sm.max_shape_field)
   with
  | Some (`Strided (s, c)) ->
      checki "max stride" Sm.max_stride s;
      checki "max chunk" Sm.max_shape_field c
  | _ -> Alcotest.fail "max strided word did not decode");
  (* plain counts and garbage are not shape words *)
  checkb "plain count" false (Sm.is_shape_word 4096);
  checkb "negative" false (Sm.is_shape_word (-1));
  checkb "zero" false (Sm.is_shape_word 0);
  checkb "tagged" true (Sm.is_shape_word strided_word);
  checkb "plain value decodes to None" true
    (Sm.decode_shape_word 4096 = None)

let test_shape_word_encode_validation () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "oversized stride" true
    (rejects (fun () ->
         Sm.encode_strided_word ~stride:(Sm.max_stride + 1) ~chunk:64));
  checkb "oversized chunk" true
    (rejects (fun () ->
         Sm.encode_strided_word ~stride:64 ~chunk:(Sm.max_shape_field + 1)));
  checkb "nonpositive chunk" true
    (rejects (fun () -> Sm.encode_strided_word ~stride:64 ~chunk:0));
  checkb "oversized sg len" true
    (rejects (fun () -> Sm.encode_sg_word ~len:(Sm.max_shape_field + 1)));
  checkb "nonpositive sg len" true
    (rejects (fun () -> Sm.encode_sg_word ~len:0))

let test_sm_shape_word_in_idle () =
  (* no destination to refine: protocol violation, machine stays idle *)
  let s, a =
    Sm.step Sm.Idle
      (Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = strided_word })
  in
  Alcotest.check sm_t "stays idle" Sm.Idle s;
  Alcotest.check action_t "inval" Sm.Invalidated a

let test_sm_strided_latch () =
  let s, a =
    Sm.step (Sm.Dest_loaded dest)
      (Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = strided_word })
  in
  Alcotest.check sm_t "shape refined"
    (Sm.Dest_loaded { dest with Sm.shape = Sm.Strided { stride = 512; chunk = 64 } })
    s;
  Alcotest.check action_t "latched" Sm.Latch_shape a;
  (* a second strided word overwrites the first *)
  let s2, a2 =
    Sm.step s
      (Sm.Store
         { proxy = 0x1000; space = Sm.Dev_space;
           value = Sm.encode_strided_word ~stride:256 ~chunk:32 })
  in
  Alcotest.check sm_t "refinement overwritten"
    (Sm.Dest_loaded { dest with Sm.shape = Sm.Strided { stride = 256; chunk = 32 } })
    s2;
  Alcotest.check action_t "latched again" Sm.Latch_shape a2

let test_sm_strided_wrong_ref_invalidates () =
  (* a strided word must re-reference the latched destination proxy *)
  let s, a =
    Sm.step (Sm.Dest_loaded dest)
      (Sm.Store { proxy = 0x2000; space = Sm.Dev_space; value = strided_word })
  in
  Alcotest.check sm_t "wrong proxy resets" Sm.Idle s;
  Alcotest.check action_t "inval" Sm.Invalidated a;
  let s, a =
    Sm.step (Sm.Dest_loaded dest)
      (Sm.Store { proxy = 0x1000; space = Sm.Mem_space; value = strided_word })
  in
  Alcotest.check sm_t "wrong space resets" Sm.Idle s;
  Alcotest.check action_t "inval" Sm.Invalidated a

let test_sm_sg_latch () =
  (* each sg word names a fresh proxy in the destination space and
     appends an element, latest first *)
  let s, a =
    Sm.step (Sm.Dest_loaded dest)
      (Sm.Store { proxy = 0x1100; space = Sm.Dev_space; value = sg_word 16 })
  in
  Alcotest.check sm_t "first element"
    (Sm.Dest_loaded
       { dest with Sm.shape = Sm.Gather { rev_elems = [ (0x1100, 16) ] } })
    s;
  Alcotest.check action_t "latched" Sm.Latch_shape a;
  let s2, a2 =
    Sm.step s
      (Sm.Store { proxy = 0x1200; space = Sm.Dev_space; value = sg_word 32 })
  in
  Alcotest.check sm_t "second element prepends"
    (Sm.Dest_loaded
       { dest with
         Sm.shape = Sm.Gather { rev_elems = [ (0x1200, 32); (0x1100, 16) ] } })
    s2;
  Alcotest.check action_t "latched" Sm.Latch_shape a2;
  (* an sg element outside the destination space is a violation *)
  let s3, a3 =
    Sm.step s
      (Sm.Store { proxy = 0x1200; space = Sm.Mem_space; value = sg_word 32 })
  in
  Alcotest.check sm_t "wrong space resets" Sm.Idle s3;
  Alcotest.check action_t "inval" Sm.Invalidated a3

let test_sm_shape_mixing_invalidates () =
  let strided_dest =
    Sm.Dest_loaded
      { dest with Sm.shape = Sm.Strided { stride = 512; chunk = 64 } }
  in
  let s, a =
    Sm.step strided_dest
      (Sm.Store { proxy = 0x1100; space = Sm.Dev_space; value = sg_word 16 })
  in
  Alcotest.check sm_t "sg after strided resets" Sm.Idle s;
  Alcotest.check action_t "inval" Sm.Invalidated a;
  let gather_dest =
    Sm.Dest_loaded
      { dest with Sm.shape = Sm.Gather { rev_elems = [ (0x1100, 16) ] } }
  in
  let s, a =
    Sm.step gather_dest
      (Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = strided_word })
  in
  Alcotest.check sm_t "strided after sg resets" Sm.Idle s;
  Alcotest.check action_t "inval" Sm.Invalidated a

let test_sm_plain_store_resets_shape () =
  (* re-storing a plain count overwrites DESTINATION/COUNT and drops
     any latched refinement — a re-paired initiation must re-issue its
     shape words *)
  let shaped =
    Sm.Dest_loaded
      { dest with Sm.shape = Sm.Strided { stride = 512; chunk = 64 } }
  in
  let s, a =
    Sm.step shaped
      (Sm.Store { proxy = 0x2000; space = Sm.Dev_space; value = 128 })
  in
  Alcotest.check sm_t "shape reset to flat" (Sm.Dest_loaded dest2) s;
  Alcotest.check action_t "plain latch" Sm.Latch_dest a

let test_sm_shaped_load_starts () =
  (* the completing LOAD carries the refinement into Transferring *)
  let shaped_dest =
    { dest with Sm.shape = Sm.Strided { stride = 512; chunk = 64 } }
  in
  let s, a =
    Sm.step (Sm.Dest_loaded shaped_dest)
      (Sm.Load { proxy = 0x9000; space = Sm.Mem_space })
  in
  Alcotest.check sm_t "transferring with shape"
    (Sm.Transferring
       { src_proxy = 0x9000; src_space = Sm.Mem_space; dest = shaped_dest })
    s;
  Alcotest.check action_t "start carries shape"
    (Sm.Start { src_proxy = 0x9000; src_space = Sm.Mem_space; dest = shaped_dest })
    a

(* The engine answers a load without [Sm.step] exactly where
   [load_is_probe] holds, so the predicate must agree with [step] on
   every state and a load in either space. *)
let test_sm_load_is_probe () =
  let states =
    [
      Sm.Idle;
      Sm.Dest_loaded dest;
      Sm.Dest_loaded { dest with Sm.dest_space = Sm.Mem_space };
      Sm.Dest_loaded
        { dest with Sm.shape = Sm.Strided { stride = 512; chunk = 64 } };
      Sm.Dest_loaded
        { dest with Sm.shape = Sm.Gather { rev_elems = [ (0x1100, 16) ] } };
      transferring;
      Sm.Transferring
        { src_proxy = 0x9000; src_space = Sm.Dev_space;
          dest = { dest2 with Sm.dest_space = Sm.Mem_space } };
    ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun space ->
          List.iter
            (fun proxy ->
              let stepped = Sm.step s (Sm.Load { proxy; space }) in
              checkb
                (Format.asprintf "%a, load %a:%#x" Sm.pp_state s Sm.pp_space
                   space proxy)
                (stepped = (s, Sm.Status_probe))
                (Sm.load_is_probe s))
            [ 0x1000; 0x9000 ])
        [ Sm.Mem_space; Sm.Dev_space ])
    states

let test_sm_totality () =
  (* every (state, event) pair steps without raising *)
  let states =
    [
      Sm.Idle;
      Sm.Dest_loaded dest;
      Sm.Dest_loaded
        { dest with Sm.shape = Sm.Strided { stride = 512; chunk = 64 } };
      Sm.Dest_loaded
        { dest with Sm.shape = Sm.Gather { rev_elems = [ (0x1100, 16) ] } };
      transferring;
    ]
  in
  let events =
    [
      Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = 8 };
      Sm.Store { proxy = 0x1000; space = Sm.Mem_space; value = 8 };
      Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = -1 };
      Sm.Store { proxy = 0x1000; space = Sm.Dev_space; value = strided_word };
      Sm.Store { proxy = 0x1100; space = Sm.Dev_space; value = sg_word 16 };
      Sm.Load { proxy = 0x1000; space = Sm.Dev_space };
      Sm.Load { proxy = 0x1000; space = Sm.Mem_space };
      Sm.Done;
    ]
  in
  List.iter
    (fun s -> List.iter (fun e -> ignore (Sm.step s e)) events)
    states;
  checki "pairs exercised" 40 (List.length states * List.length events)

(* ---------- Udma_engine at the physical level ---------- *)

let rig ?(mode = Udma_engine.Basic) () =
  let layout = Layout.create ~page_size:4096 ~mem_pages:16 ~dev_pages:8 in
  let mem = Phys_mem.create ~frames:16 ~page_size:4096 in
  let engine = Engine.create () in
  let bus = Bus.create mem in
  let dma = Dma_engine.create ~engine ~bus () in
  let udma = Udma_engine.create ~engine ~layout ~bus ~dma ~mode () in
  let port, store = Device.buffer "dev" ~size:(8 * 4096) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
  (engine, layout, mem, bus, udma, store)

(* physical proxy addresses *)
let mp layout addr = Layout.proxy_of layout addr
let dp layout page offset = Layout.dev_proxy_addr layout ~page ~offset

let test_engine_basic_sequence () =
  let engine, layout, mem, _, udma, store = rig () in
  Phys_mem.write_bytes mem ~addr:4096 (Bytes.of_string "0123456789abcdef");
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 16l;
  (match Udma_engine.state udma with
  | Sm.Dest_loaded d -> checki "count latched" 16 d.Sm.nbytes
  | s -> Alcotest.failf "expected DestLoaded, got %a" Sm.pp_state s);
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "started" true st.Status.started;
  checkb "transferring" true st.Status.transferring;
  checkb "match on initiating load" true st.Status.matches;
  checki "remaining is full count" 16 st.Status.remaining_bytes;
  Engine.run_until_idle engine;
  Alcotest.check Alcotest.string "data" "0123456789abcdef"
    (Bytes.to_string (Bytes.sub store 0 16));
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "probe after done: invalid" true st.Status.invalid;
  checkb "match cleared" false st.Status.matches

let test_engine_dev_to_mem () =
  let engine, layout, mem, _, udma, store = rig () in
  Bytes.blit_string "from-the-device!" 0 store 100 16;
  (* dest = memory proxy, source = device proxy *)
  Udma_engine.handle_store udma ~paddr:(mp layout 8192) 16l;
  let st = load_status udma ~paddr:(dp layout 0 100) in
  checkb "started" true st.Status.started;
  Engine.run_until_idle engine;
  Alcotest.check Alcotest.string "landed" "from-the-device!"
    (Bytes.to_string (Phys_mem.read_bytes mem ~addr:8192 ~len:16))

let test_engine_badload_wrong_space () =
  let _, layout, _, _, udma, _ = rig () in
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 16l;
  (* load from device space while dest is device space: dev-to-dev *)
  let st = load_status udma ~paddr:(dp layout 1 0) in
  checkb "wrong space flagged" true st.Status.wrong_space;
  checkb "not started" false st.Status.started;
  checkb "machine reset" true (Udma_engine.state udma = Sm.Idle);
  checki "counter" 1 (Udma_engine.counters udma).Udma_engine.bad_loads

let test_engine_invalidate () =
  let _, layout, _, _, udma, _ = rig () in
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 64l;
  Udma_engine.invalidate udma;
  checkb "idle" true (Udma_engine.state udma = Sm.Idle);
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "subsequent load is a probe" false st.Status.started;
  checkb "invalid flag" true st.Status.invalid

let test_engine_page_boundary_clamp () =
  let engine, layout, _, _, udma, _ = rig () in
  (* source starts 100 bytes before a page end; ask for 4096 *)
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 4096l;
  let src = mp layout (2 * 4096 - 100) in
  let st = load_status udma ~paddr:src in
  checkb "started" true st.Status.started;
  checki "clamped to source page room" 100 st.Status.remaining_bytes;
  checki "clamp counted" 1 (Udma_engine.counters udma).Udma_engine.clamped;
  Engine.run_until_idle engine;
  (* destination-side clamp *)
  Udma_engine.handle_store udma ~paddr:(dp layout 0 (4096 - 8)) 4096l;
  let st = load_status udma ~paddr:(mp layout 4096) in
  checki "clamped to dest page room" 8 st.Status.remaining_bytes

let test_engine_unbound_device_page () =
  (* bind only 4 of the layout's 8 device-proxy pages: an access to an
     unbound page must report a device error and reset the machine *)
  let layout2 = Layout.create ~page_size:4096 ~mem_pages:16 ~dev_pages:8 in
  let mem = Phys_mem.create ~frames:16 ~page_size:4096 in
  let engine = Engine.create () in
  let bus = Bus.create mem in
  let dma = Dma_engine.create ~engine ~bus () in
  let udma2 = Udma_engine.create ~engine ~layout:layout2 ~bus ~dma () in
  let port, _ = Device.buffer "d" ~size:(4 * 4096) in
  Udma_engine.attach_device udma2 ~base_page:0 ~pages:4 ~port ();
  (* a port is bound once: a device-proxy address and its (port,
     device address) name each other *)
  checkb "port bound twice rejected" true
    (try Udma_engine.attach_device udma2 ~base_page:5 ~pages:1 ~port (); false
     with Invalid_argument _ -> true);
  Udma_engine.handle_store udma2 ~paddr:(dp layout2 6 0) 16l;
  let st = load_status udma2 ~paddr:(mp layout2 4096) in
  checkb "device error" true (st.Status.device_error <> 0);
  checkb "not started" false st.Status.started;
  checkb "reset" true (Udma_engine.state udma2 = Sm.Idle)

let test_engine_validate_hook () =
  let layout = Layout.create ~page_size:4096 ~mem_pages:16 ~dev_pages:8 in
  let mem = Phys_mem.create ~frames:16 ~page_size:4096 in
  let engine = Engine.create () in
  let bus = Bus.create mem in
  let dma = Dma_engine.create ~engine ~bus () in
  let udma = Udma_engine.create ~engine ~layout ~bus ~dma () in
  let port, _ = Device.buffer "d" ~size:(8 * 4096) in
  (* a device that requires 4-byte alignment, like SHRIMP (§8) *)
  Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port
    ~validate:(fun ~dev_addr ~nbytes ->
      if dev_addr land 3 <> 0 || nbytes land 3 <> 0 then 1 else 0)
    ();
  Udma_engine.handle_store udma ~paddr:(dp layout 0 2) 16l;
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "alignment rejected" true (st.Status.device_error <> 0);
  (* aligned passes *)
  Udma_engine.handle_store udma ~paddr:(dp layout 0 4) 16l;
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "aligned accepted" true st.Status.started

let test_engine_status_via_bus () =
  let _, layout, _, bus, _udma, _ = rig () in
  (* a word load from proxy space through the bus returns the encoded
     status, exactly what the user's LOAD instruction sees *)
  let w = Bus.load_word bus (mp layout 4096) in
  let st = Status.decode w in
  checkb "invalid (idle probe)" true st.Status.invalid

let test_engine_mem_frame_busy_during_transfer () =
  let engine, layout, _, _, udma, _ = rig () in
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 4096l;
  ignore (load_status udma ~paddr:(mp layout (3 * 4096)));
  checkb "frame 3 busy" true (Udma_engine.mem_frame_busy udma ~frame:3);
  checkb "frame 5 free" false (Udma_engine.mem_frame_busy udma ~frame:5);
  Engine.run_until_idle engine;
  checkb "free after" false (Udma_engine.mem_frame_busy udma ~frame:3)

(* ---------- queued mode ---------- *)

let test_queued_accepts_while_busy () =
  let engine, layout, _, _, udma, store =
    rig ~mode:(Udma_engine.Queued { depth = 4 }) ()
  in
  (* three back-to-back pieces without waiting *)
  for i = 0 to 2 do
    Udma_engine.handle_store udma ~paddr:(dp layout i 0) 4096l;
    let st = load_status udma ~paddr:(mp layout ((i + 1) * 4096)) in
    checkb (Printf.sprintf "piece %d accepted" i) true st.Status.started
  done;
  checki "outstanding" 3 (Udma_engine.outstanding udma);
  checkb "machine back to idle between pairs" true
    (Udma_engine.state udma = Sm.Idle);
  Engine.run_until_idle engine;
  checki "all completed" 3 (Udma_engine.counters udma).Udma_engine.completions;
  checkb "device wrote all pages" true (Bytes.length store >= 3 * 4096)

let test_queued_refuses_when_full () =
  let engine, layout, _, _, udma, _ =
    rig ~mode:(Udma_engine.Queued { depth = 1 }) ()
  in
  (* first: starts on the DMA engine; second: queued; third: refused *)
  let issue i =
    Udma_engine.handle_store udma ~paddr:(dp layout i 0) 4096l;
    load_status udma ~paddr:(mp layout ((i + 1) * 4096))
  in
  checkb "1 started" true (issue 0).Status.started;
  checkb "2 queued" true (issue 1).Status.started;
  let st = issue 2 in
  checkb "3 refused" false st.Status.started;
  checkb "queue-full flag" true st.Status.queue_full;
  (* §7: the DESTINATION stays latched, the LOAD alone can be retried *)
  (match Udma_engine.state udma with
  | Sm.Dest_loaded _ -> ()
  | s -> Alcotest.failf "expected DestLoaded after refusal, got %a" Sm.pp_state s);
  Engine.run_until_idle engine;
  let st = load_status udma ~paddr:(mp layout (3 * 4096)) in
  checkb "retried LOAD succeeds after drain" true st.Status.started;
  Engine.run_until_idle engine

let test_queued_refcounts () =
  let engine, layout, _, _, udma, _ =
    rig ~mode:(Udma_engine.Queued { depth = 4 }) ()
  in
  (* two requests from the same source frame *)
  for i = 0 to 1 do
    Udma_engine.handle_store udma ~paddr:(dp layout i 0) 4096l;
    ignore (load_status udma ~paddr:(mp layout (2 * 4096)))
  done;
  checki "refcount 2" 2 (Udma_engine.refcount udma ~frame:2);
  checkb "frame busy" true (Udma_engine.mem_frame_busy udma ~frame:2);
  Engine.run_until_idle engine;
  checki "refcount drains" 0 (Udma_engine.refcount udma ~frame:2)

let test_queued_match_is_associative () =
  let engine, layout, _, _, udma, _ =
    rig ~mode:(Udma_engine.Queued { depth = 4 }) ()
  in
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 4096l;
  ignore (load_status udma ~paddr:(mp layout 4096));
  Udma_engine.handle_store udma ~paddr:(dp layout 1 0) 4096l;
  ignore (load_status udma ~paddr:(mp layout (2 * 4096)));
  (* both outstanding requests answer to the match query *)
  let st1 = load_status udma ~paddr:(mp layout 4096) in
  checkb "queued req 1 matches" true st1.Status.matches;
  let st2 = load_status udma ~paddr:(mp layout (2 * 4096)) in
  checkb "queued req 2 matches" true st2.Status.matches;
  let st3 = load_status udma ~paddr:(mp layout (3 * 4096)) in
  checkb "other address does not" false st3.Status.matches;
  Engine.run_until_idle engine;
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "cleared after completion" false st.Status.matches

let test_system_queue_priority () =
  let engine, layout, _, _, udma, _ =
    rig ~mode:(Udma_engine.Queued { depth = 8 }) ()
  in
  let order = ref [] in
  Udma_engine.set_start_hook udma (fun ~src_proxy ~dest_proxy:_ ~nbytes:_ ->
      order := src_proxy :: !order);
  (* occupy the engine, then queue one user and one system request;
     the system one must run first *)
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 4096l;
  ignore (load_status udma ~paddr:(mp layout 4096));
  Udma_engine.handle_store udma ~paddr:(dp layout 1 0) 4096l;
  ignore (load_status udma ~paddr:(mp layout (2 * 4096)));
  (match
     Udma_engine.enqueue_system udma
       ~src_proxy:(mp layout (3 * 4096))
       ~dest_proxy:(dp layout 2 0) ~nbytes:4096
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "system enqueue refused");
  (* completion order: the start hook fires at acceptance, so watch
     the DMA completion order instead via draining *)
  Engine.run_until_idle engine;
  checki "all three ran" 3 (Udma_engine.counters udma).Udma_engine.completions

let test_basic_enqueue_system_requires_idle () =
  let engine, layout, _, _, udma, _ = rig () in
  (match
     Udma_engine.enqueue_system udma ~src_proxy:(mp layout 4096)
       ~dest_proxy:(dp layout 0 0) ~nbytes:64
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "idle engine should accept");
  (* busy now: depth-0 semantics refuse *)
  checkb "busy refuses" true
    (Udma_engine.enqueue_system udma ~src_proxy:(mp layout 8192)
       ~dest_proxy:(dp layout 1 0) ~nbytes:64
     = Error `Full);
  (* and a user pair during the kernel transfer is held off: the
     machine mirrors Transferring, so the store is ignored *)
  Udma_engine.handle_store udma ~paddr:(dp layout 1 0) 64l;
  let st = load_status udma ~paddr:(mp layout 8192) in
  checkb "user probe sees transferring" true st.Status.transferring;
  checkb "user pair not started" false st.Status.started;
  Engine.run_until_idle engine;
  checkb "idle after" true (Udma_engine.state udma = Sm.Idle)

let test_abort_active () =
  let engine, layout, mem, _, udma, store = rig () in
  Phys_mem.write_bytes mem ~addr:4096 (Bytes.make 64 'Z');
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 64l;
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "started" true st.Status.started;
  checkb "abort succeeds" true (Udma_engine.abort_active udma);
  checkb "machine idle" true (Udma_engine.state udma = Sm.Idle);
  checki "abort counted" 1 (Udma_engine.counters udma).Udma_engine.aborts;
  Engine.run_until_idle engine;
  checkb "no data moved" true (Bytes.get store 0 = '\000');
  checki "no completion" 0 (Udma_engine.counters udma).Udma_engine.completions;
  (* the initiating process's completion check sees the match clear *)
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "match cleared" false st.Status.matches;
  checkb "abort when idle is false" false (Udma_engine.abort_active udma);
  (* the engine is reusable afterwards *)
  Udma_engine.handle_store udma ~paddr:(dp layout 0 0) 64l;
  let st = load_status udma ~paddr:(mp layout 4096) in
  checkb "restarted fine" true st.Status.started;
  Engine.run_until_idle engine;
  checkb "data moved this time" true (Bytes.get store 0 = 'Z')

let test_queued_abort_dispatches_next () =
  let engine, layout, _, _, udma, _ =
    rig ~mode:(Udma_engine.Queued { depth = 4 }) ()
  in
  for i = 0 to 1 do
    Udma_engine.handle_store udma ~paddr:(dp layout i 0) 4096l;
    ignore (load_status udma ~paddr:(mp layout ((i + 1) * 4096)))
  done;
  checki "two outstanding" 2 (Udma_engine.outstanding udma);
  checkb "abort head" true (Udma_engine.abort_active udma);
  checki "one left and dispatched" 1 (Udma_engine.outstanding udma);
  Engine.run_until_idle engine;
  checki "the queued one completed" 1
    (Udma_engine.counters udma).Udma_engine.completions

let test_queued_dev_proxy_match () =
  let engine, layout, _, _, udma, _ =
    rig ~mode:(Udma_engine.Queued { depth = 4 }) ()
  in
  Udma_engine.handle_store udma ~paddr:(dp layout 2 0) 4096l;
  ignore (load_status udma ~paddr:(mp layout 4096));
  (* the associative query answers for the DESTINATION base too *)
  let st = load_status udma ~paddr:(dp layout 2 0) in
  checkb "dest proxy matches" true st.Status.matches;
  Engine.run_until_idle engine;
  let st = load_status udma ~paddr:(dp layout 2 0) in
  checkb "clears after completion" false st.Status.matches

let test_nipt_scale_32k () =
  (* the board's 15-bit index: 32K destination pages *)
  let module Backend = Udma_protect.Backend in
  let n = Backend.create Backend.Proxy ~entries:32768 () in
  Alcotest.(check int) "capacity" 32768 (Backend.capacity n);
  ignore (Backend.grant n ~owner:1 ~index:32767 ~dst_node:1 ~dst_frame:42);
  checkb "last entry works" true (Backend.decode n ~index:32767 <> None)

(* ---------- initiation = naive shape expansion ---------- *)

(* A device that refuses some 512-byte blocks, with distinct error
   bits, so the first refusal of a shape is told apart from a later
   one; only device pages 0..5 are bound. *)
let refusing_validate ~dev_addr ~nbytes:_ =
  let block = dev_addr / 512 in
  if List.mem (block mod 13) [ 5; 9; 11 ] then 1 + (block mod 3) else 0

type init_case = {
  to_dev : bool;  (* mem → dev when true, dev → mem otherwise *)
  src : int * int;  (* page, offset in the source space *)
  dst : int * int;
  total : int;
  shape : [ `Flat | `Strided of int * int | `Gather of (int * int * int) list ];
}

let print_init_case c =
  let po (p, o) = Printf.sprintf "%d:%d" p o in
  Printf.sprintf "%s src=%s dst=%s total=%d %s"
    (if c.to_dev then "mem->dev" else "dev->mem")
    (po c.src) (po c.dst) c.total
    (match c.shape with
    | `Flat -> "flat"
    | `Strided (stride, chunk) -> Printf.sprintf "strided %d/%d" stride chunk
    | `Gather sgs ->
        "gather "
        ^ String.concat ";"
            (List.map (fun (p, o, l) -> Printf.sprintf "%s+%d" (po (p, o)) l) sgs))

let gen_init_case =
  let open QCheck.Gen in
  let pages_of to_dev_space = if to_dev_space then 8 else 16 in
  (* offsets near a page end make the clamp truncate or drop the tail *)
  let at space_dev =
    pair (int_range 0 (pages_of space_dev - 1))
      (oneof [ int_range 0 4095; int_range 3800 4095 ])
  in
  let* to_dev = bool in
  let* src = at (not to_dev) in
  let* dst = at to_dev in
  let* shape =
    frequency
      [ (1, return `Flat);
        (2, map2 (fun stride chunk -> `Strided (stride, chunk))
              (oneof [ int_range 0 64; int_range 0 1200 ])
              (oneof [ int_range 1 16; int_range 1 700 ]));
        (2, map (fun sgs -> `Gather sgs)
              (list_size (int_range 1 5)
                 (map2 (fun (p, o) l -> (p, o, l)) (at to_dev)
                    (oneof [ int_range 1 64; int_range 1 2000 ]))));
      ]
  in
  (* a gather's count leaves element zero a remainder that is
     sometimes non-positive *)
  let* total =
    match shape with
    | `Gather sgs ->
        let listed = List.fold_left (fun a (_, _, l) -> a + l) 0 sgs in
        map (fun len0 -> Int.max 1 (listed + len0)) (int_range (-40) 600)
    | `Flat | `Strided _ -> oneof [ int_range 1 600; int_range 1 6000 ]
  in
  return { to_dev; src; dst; total; shape }

(* The reference: expand the shape naively, clamp each piece to the
   pages its references name, drop what clamps to nothing, resolve
   endpoints in order and stop at the first refusal. Returns the raw
   pieces, and the outstanding elements, the status error bits, the
   clamp count and the status remaining bytes. *)
let reference_initiation layout c ~sp ~dp ~sg_proxy =
  let ps = 4096 in
  let raw =
    match c.shape with
    | `Flat -> [ (sp, dp, c.total, dp) ]
    | `Strided (stride, chunk) ->
        List.init ((c.total + chunk - 1) / chunk) (fun i ->
            (sp + (i * stride), dp + (i * chunk), Int.min chunk (c.total - (i * chunk)), dp))
    | `Gather sgs ->
        let len0 = List.fold_left (fun a (_, _, l) -> a - l) c.total sgs in
        (sp, dp, len0, dp)
        :: snd (List.fold_left_map (fun off (p, o, l) ->
                    (off + l, (sp + off, sg_proxy p o, l, sg_proxy p o))) len0 sgs)
  in
  let fit base a len = if a / ps <> base / ps then 0 else Int.min len (ps - (a mod ps)) in
  let kept = List.filter_map (fun (s, d, len, db) ->
      let len = Int.min (fit sp s len) (fit db d len) in
      if len > 0 then Some (s, d, len) else None) raw in
  let total = List.fold_left (fun a (_, _, l) -> a + l) 0 kept in
  let endpoint p len =
    if Layout.region_of layout p = Some Layout.Mem_proxy then Ok (`M (Layout.unproxy layout p))
    else
      let page, off = Layout.dev_proxy_index layout p in
      let v = refusing_validate ~dev_addr:((page * ps) + off) ~nbytes:len in
      if page >= 6 then Error 0x1
      else if v <> 0 then Error (0x2 lor ((v land 3) lsl 2))
      else Ok (`D ((page * ps) + off))
  in
  let resolve (s, d, len) =
    Result.bind (endpoint s len) (fun s -> Result.map (fun d -> (s, d, len)) (endpoint d len))
  in
  let refusal = List.find_map (fun e -> Result.fold ~ok:(fun _ -> None) ~error:Option.some (resolve e)) kept in
  let clamped = if total < c.total then 1 else 0 in
  ( raw,
    match (raw, refusal) with
    | (_, _, len0, _) :: _, _ when len0 <= 0 -> ([], 0x8, 0, 0)
    | _, Some bits -> ([], bits, clamped, 0)
    | _, None -> (List.map (fun e -> Result.get_ok (resolve e)) kept, 0, clamped, total) )

(* One initiation of a case on a fresh engine: the latch, the shape
   words and the initiating LOAD, timed on the host. *)
type init_run = {
  r_layout : Layout.t;
  r_engine : Engine.t;
  r_bus : Bus.t;
  r_dma : Dma_engine.t;
  r_udma : Udma_engine.t;
  r_sp : int;  (* source proxy *)
  r_dpx : int;  (* destination proxy *)
  r_sg_proxy : int -> int -> int;
  r_load_secs : float;
  r_got : ([ `M of int | `D of int ] * [ `M of int | `D of int ] * int) list * int * int * int;
      (* outstanding elements, status error bits, clamp count, status
         remaining bytes *)
}

let initiate_case c =
  let layout = Layout.create ~page_size:4096 ~mem_pages:16 ~dev_pages:8 in
  let mem = Phys_mem.create ~frames:16 ~page_size:4096 in
  let engine = Engine.create () in
  let bus = Bus.create mem in
  let dma = Dma_engine.create ~engine ~bus () in
  let udma = Udma_engine.create ~engine ~layout ~bus ~dma () in
  let port, _ = Device.buffer "dev" ~size:(8 * 4096) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:6 ~port
    ~validate:refusing_validate ();
  let proxy ~dev (p, o) =
    if dev then dp layout p o else mp layout ((p * 4096) + o)
  in
  let sp = proxy ~dev:(not c.to_dev) c.src and dpx = proxy ~dev:c.to_dev c.dst in
  let sg_proxy p o = proxy ~dev:c.to_dev (p, o) in
  Udma_engine.handle_store udma ~paddr:dpx (Int32.of_int c.total);
  (match c.shape with
  | `Flat -> ()
  | `Strided (stride, chunk) ->
      Udma_engine.handle_store udma ~paddr:dpx
        (Int32.of_int (Sm.encode_strided_word ~stride ~chunk))
  | `Gather sgs ->
      List.iter
        (fun (p, o, len) ->
          Udma_engine.handle_store udma ~paddr:(sg_proxy p o)
            (Int32.of_int (Sm.encode_sg_word ~len)))
        sgs);
  let t0 = Sys.time () in
  let st = load_status udma ~paddr:sp in
  let load_secs = Sys.time () -. t0 in
  let ep = function Dma_engine.Mem a -> `M a | Dma_engine.Dev (_, a) -> `D a in
  let got =
    ( List.concat_map
        (fun (v : Udma_engine.req_view) ->
          List.map
            (fun (e : Udma_dma.Descriptor.element) -> (ep e.src, ep e.dst, e.len))
            v.Udma_engine.v_elements)
        (Udma_engine.outstanding_views udma),
      st.Status.device_error,
      (Udma_engine.counters udma).Udma_engine.clamped,
      st.Status.remaining_bytes )
  in
  { r_layout = layout; r_engine = engine; r_bus = bus; r_dma = dma; r_udma = udma;
    r_sp = sp; r_dpx = dpx; r_sg_proxy = sg_proxy; r_load_secs = load_secs; r_got = got }

let prop_initiation_matches_reference =
  QCheck.Test.make ~count:400 ~name:"initiation = naive shape expansion"
    (QCheck.make ~print:print_init_case gen_init_case)
    (fun c ->
      let { r_layout = layout; r_engine = engine; r_bus = bus; r_dma = dma; r_udma = udma;
            r_sp = sp; r_dpx = dpx; r_sg_proxy = sg_proxy; r_got = got; _ } =
        initiate_case c
      in
      let raw, want = reference_initiation layout c ~sp ~dp:dpx ~sg_proxy in
      if got <> want then begin
        let show (es, bits, clamped, rem) =
          Printf.sprintf "%d elements (first %s), bits %#x, clamped %d, remaining %d"
            (List.length es)
            (match es with
            | (s, d, l) :: _ ->
                let e = function `M a -> Printf.sprintf "M%d" a | `D a -> Printf.sprintf "D%d" a in
                Printf.sprintf "%s->%s/%d" (e s) (e d) l
            | [] -> "-")
            bits clamped rem
        in
        QCheck.Test.fail_reportf "engine: %s\nreference: %s" (show got) (show want)
      end;
      let (outstanding, _, _, _) = want in
      let mem_ranges =
        List.concat_map
          (fun (s, d, len) ->
            List.filter_map
              (function `M a -> Some (a / 4096, (a + len - 1) / 4096) | `D _ -> None)
              [ s; d ])
          outstanding
      in
      (* per-frame reference counts and the frames in flight: one count
         per element for each frame its memory side covers *)
      for frame = 0 to 15 do
        let covering = List.filter (fun (lo, hi) -> frame >= lo && frame <= hi) mem_ranges in
        let got = Udma_engine.refcount udma ~frame in
        if got <> List.length covering then
          QCheck.Test.fail_reportf "frame %d: refcount %d, reference %d" frame got
            (List.length covering);
        if Dma_engine.mem_page_in_flight dma ~page_size:4096 frame <> (covering <> []) then
          QCheck.Test.fail_reportf "frame %d: in flight %b" frame (covering = [])
      done;
      (* the match flag answers for both ends of every outstanding
         element, and for no other proxy address: probe both ends of
         every raw piece and, between two strided pieces, the addresses
         next to each end *)
      let proxy = function
        | `M a -> mp layout a
        | `D a -> dp layout (a / 4096) (a mod 4096)
      in
      let named = Hashtbl.create 64 in
      List.iter
        (fun (s, d, _) ->
          Hashtbl.replace named (proxy s) ();
          Hashtbl.replace named (proxy d) ())
        outstanding;
      let probe what p =
        let is_proxy =
          match Layout.region_of layout p with
          | Some (Layout.Mem_proxy | Layout.Dev_proxy) -> true
          | Some Layout.Mem | None -> false
        in
        let want = Hashtbl.mem named p in
        if is_proxy && (load_status udma ~paddr:p).Status.matches <> want then
          QCheck.Test.fail_reportf "probe %#x (%s): match flag %b" p what (not want)
      in
      let between i a b =
        if b - a >= 2 then begin
          probe (Printf.sprintf "after piece %d" i) (a + 1);
          probe (Printf.sprintf "before piece %d" (i + 1)) (b - 1)
        end
      in
      let rec walk i = function
        | [] -> ()
        | (s, d, _, _) :: rest ->
            probe (Printf.sprintf "source of piece %d" i) s;
            probe (Printf.sprintf "destination of piece %d" i) d;
            (match (c.shape, rest) with
            | `Strided _, (s', d', _, _) :: _ ->
                between i s s';
                between i d d'
            | (`Flat | `Strided _ | `Gather _), _ -> ());
            walk (i + 1) rest
      in
      walk 0 raw;
      (* the status count at cycles through the transfer, against the
         burst timing laid out by hand: per element, a descriptor fetch
         (after the first), the burst setup and one cycle count per
         word *)
      (match outstanding with
      | [] -> ()
      | _ :: _ ->
          let timing = Bus.timing bus and fetch = Udma_dma.Midend.desc_fetch_cycles bus in
          let bursts, duration =
            List.fold_left
              (fun (acc, cursor) (_, _, len) ->
                let words = (len + 3) / 4 in
                let data_start =
                  cursor + (if acc = [] then 0 else fetch) + timing.Bus.burst_setup_cycles
                in
                ((data_start, words, len) :: acc,
                 data_start + (words * timing.Bus.burst_word_cycles)))
              ([], 0) outstanding
          in
          let total = List.fold_left (fun a (_, _, l) -> a + l) 0 outstanding in
          let reference elapsed =
            if elapsed >= duration then 0
            else
              let on_wire =
                List.fold_left
                  (fun acc (data_start, words, len) ->
                    if elapsed <= data_start then acc
                    else
                      acc
                      + Int.min len
                          (Int.min ((elapsed - data_start) / timing.Bus.burst_word_cycles) words
                          * 4))
                  0 bursts
              in
              total - (on_wire land lnot 3)
          in
          let rng = Random.State.make [| Hashtbl.hash (print_init_case c) |] in
          let t0 = Engine.now engine in
          let cycles =
            List.sort_uniq Int.compare
              (List.init 12 (fun _ -> Random.State.int rng (duration + 2)))
          in
          List.iter
            (fun elapsed ->
              Engine.advance engine (t0 + elapsed - Engine.now engine);
              let got = Dma_engine.remaining_bytes dma in
              if got <> reference elapsed then
                QCheck.Test.fail_reportf "%d cycles in: remaining %d, reference %d" elapsed
                  got (reference elapsed))
            cycles);
      true)

(* A count far past the page: the clamp keeps one destination page of
   a stride-0, 1-byte strided shape and drops every later piece, so the
   initiating LOAD must match the naive expansion of that page alone,
   and must not walk the 100,000,000 pieces the count implies. *)
let test_strided_count_past_page () =
  let c =
    { to_dev = false; src = (0, 0); dst = (3, 96); total = 100_000_000;
      shape = `Strided (0, 1) }
  in
  let r = initiate_case c in
  let _, (elements, bits, _, remaining) =
    reference_initiation r.r_layout { c with total = 4096 - 96 } ~sp:r.r_sp ~dp:r.r_dpx
      ~sg_proxy:r.r_sg_proxy
  in
  let got_elements, got_bits, got_clamped, got_remaining = r.r_got in
  checki "one page of elements" (4096 - 96) (List.length got_elements);
  checkb "elements = the first page's naive expansion" true (got_elements = elements);
  checki "status error bits" bits got_bits;
  checki "status remaining bytes" remaining got_remaining;
  checki "clamped" 1 got_clamped;
  if r.r_load_secs >= 0.1 then
    Alcotest.failf "the initiating LOAD took %.3f s of host time" r.r_load_secs

(* ---------- allocation guard: one strided initiation ---------- *)

(* Minor words a warm 256-element strided initiation (4-byte chunks)
   may allocate per element, LOAD to DMA submit: the plan's array of
   burst start cycles, one word per element, and the request's few
   records (1.53 measured, plus 10 %; 23.48 when the request built a
   list of element records). *)
let strided_words_per_element_max = 1.68

let test_strided_initiation_alloc () =
  let engine, layout, _, _, udma, _ = rig () in
  let elements = 256 in
  let initiate () =
    Udma_engine.handle_store udma ~paddr:(dp layout 0 0) (Int32.of_int (4 * elements));
    Udma_engine.handle_store udma ~paddr:(dp layout 0 0)
      (Int32.of_int (Sm.encode_strided_word ~stride:8 ~chunk:4));
    let w0 = Gc.minor_words () in
    let status = Udma_engine.handle_load udma ~paddr:(mp layout 4096) in
    let words = Gc.minor_words () -. w0 in
    Engine.run_until_idle engine;
    (words, Status.decode status)
  in
  for _ = 1 to 50 do ignore (initiate ()) done;
  let rounds = 20 in
  let words = ref 0.0 in
  for _ = 1 to rounds do
    let w, st = initiate () in
    if st.Status.remaining_bytes <> 4 * elements then
      Alcotest.failf "initiation moved %d bytes, not %d" st.Status.remaining_bytes
        (4 * elements);
    words := !words +. w
  done;
  let per_element = !words /. float_of_int (rounds * elements) in
  Printf.printf "strided guard: %.3f minor words per element\n" per_element;
  if per_element > strided_words_per_element_max then
    Alcotest.failf "%.2f minor words per element > %.2f" per_element
      strided_words_per_element_max

let () =
  Alcotest.run "udma_core"
    [
      ( "status",
        [
          Alcotest.test_case "encode/decode" `Quick test_status_encode_decode;
          Alcotest.test_case "initiation flag polarity" `Quick
            test_status_initiation_flag_polarity;
          Alcotest.test_case "remaining saturates" `Quick
            test_status_remaining_saturates;
          Alcotest.test_case "predicates" `Quick test_status_predicates;
          Alcotest.test_case "validation" `Quick test_status_validation;
        ] );
      ( "state_machine",
        [
          Alcotest.test_case "store from idle" `Quick test_sm_store_from_idle;
          Alcotest.test_case "inval from idle" `Quick test_sm_inval_from_idle;
          Alcotest.test_case "zero count is inval" `Quick test_sm_zero_count_is_inval;
          Alcotest.test_case "store overwrites dest" `Quick
            test_sm_store_overwrites_dest;
          Alcotest.test_case "inval from destloaded" `Quick
            test_sm_inval_from_destloaded;
          Alcotest.test_case "load starts transfer" `Quick
            test_sm_load_starts_transfer;
          Alcotest.test_case "badload" `Quick test_sm_badload;
          Alcotest.test_case "load in idle probes" `Quick test_sm_load_in_idle_probes;
          Alcotest.test_case "transferring ignores stores" `Quick
            test_sm_transferring_ignores_stores;
          Alcotest.test_case "transferring load probes" `Quick
            test_sm_transferring_load_probes;
          Alcotest.test_case "done" `Quick test_sm_done;
          Alcotest.test_case "totality" `Quick test_sm_totality;
          Alcotest.test_case "load_is_probe = step's probe rows" `Quick
            test_sm_load_is_probe;
        ] );
      ( "shape-words",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick
            test_shape_word_roundtrip;
          Alcotest.test_case "encode validation" `Quick
            test_shape_word_encode_validation;
          Alcotest.test_case "shape word in idle invalidates" `Quick
            test_sm_shape_word_in_idle;
          Alcotest.test_case "strided word refines dest" `Quick
            test_sm_strided_latch;
          Alcotest.test_case "strided word must re-reference dest" `Quick
            test_sm_strided_wrong_ref_invalidates;
          Alcotest.test_case "sg words append elements" `Quick test_sm_sg_latch;
          Alcotest.test_case "mixing strided and sg invalidates" `Quick
            test_sm_shape_mixing_invalidates;
          Alcotest.test_case "plain re-store resets shape" `Quick
            test_sm_plain_store_resets_shape;
          Alcotest.test_case "load carries shape into transfer" `Quick
            test_sm_shaped_load_starts;
        ] );
      ( "engine-basic",
        [
          Alcotest.test_case "two-reference sequence" `Quick
            test_engine_basic_sequence;
          Alcotest.test_case "device to memory" `Quick test_engine_dev_to_mem;
          Alcotest.test_case "badload wrong space" `Quick
            test_engine_badload_wrong_space;
          Alcotest.test_case "invalidate" `Quick test_engine_invalidate;
          Alcotest.test_case "page boundary clamp" `Quick
            test_engine_page_boundary_clamp;
          Alcotest.test_case "unbound device page" `Quick
            test_engine_unbound_device_page;
          Alcotest.test_case "device validate hook" `Quick test_engine_validate_hook;
          Alcotest.test_case "status via bus" `Quick test_engine_status_via_bus;
          Alcotest.test_case "frame busy during transfer" `Quick
            test_engine_mem_frame_busy_during_transfer;
        ] );
      ( "abort-extension",
        [
          Alcotest.test_case "abort active transfer" `Quick test_abort_active;
          Alcotest.test_case "queued abort dispatches next" `Quick
            test_queued_abort_dispatches_next;
          Alcotest.test_case "dest-proxy associative match" `Quick
            test_queued_dev_proxy_match;
          Alcotest.test_case "32K NIPT scale" `Quick test_nipt_scale_32k;
        ] );
      ( "engine-queued",
        [
          Alcotest.test_case "accepts while busy" `Quick test_queued_accepts_while_busy;
          Alcotest.test_case "refuses when full" `Quick test_queued_refuses_when_full;
          Alcotest.test_case "refcounts" `Quick test_queued_refcounts;
          Alcotest.test_case "associative match" `Quick
            test_queued_match_is_associative;
          Alcotest.test_case "system queue priority" `Quick test_system_queue_priority;
          Alcotest.test_case "basic enqueue_system requires idle" `Quick
            test_basic_enqueue_system_requires_idle;
        ] );
      ( "initiation",
        [
          QCheck_alcotest.to_alcotest prop_initiation_matches_reference;
          Alcotest.test_case
            (Printf.sprintf
               "a warm 256-element strided initiation allocates at most %g \
                minor words per element"
               strided_words_per_element_max)
            `Quick test_strided_initiation_alloc;
          Alcotest.test_case "a strided count past the page keeps one page, fast" `Quick
            test_strided_count_past_page;
        ] );
    ]
