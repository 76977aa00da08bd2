(* Unit tests for the bus and the modular DMA controller (paper
   section 2, Figure 1; frontend/midend/backend split). *)

module Engine = Udma_sim.Engine
module Phys_mem = Udma_memory.Phys_mem
module Bus = Udma_dma.Bus
module Device = Udma_dma.Device
module Descriptor = Udma_dma.Descriptor
module Midend = Udma_dma.Midend
module Dma_engine = Udma_dma.Dma_engine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let rig () =
  let mem = Phys_mem.create ~frames:8 ~page_size:4096 in
  let engine = Engine.create () in
  let bus = Bus.create mem in
  let dma = Dma_engine.create ~engine ~bus () in
  (engine, mem, bus, dma)

let contiguous ~src ~dst ~nbytes = [ { Descriptor.src; dst; len = nbytes } ]

let advance ep delta =
  match ep with
  | Dma_engine.Mem a -> Dma_engine.Mem (a + delta)
  | Dma_engine.Dev (p, a) -> Dma_engine.Dev (p, a + delta)

(* [reps] chunks of [chunk] bytes, the source stepping by [stride] per
   chunk (a strided read of rows/columns) and the destination packed
   densely: the list the UDMA engine expands a strided shape into. *)
let strided ~src ~dst ~stride ~chunk ~reps =
  List.init reps (fun i ->
      { Descriptor.src = advance src (i * stride); dst = advance dst (i * chunk);
        len = chunk })

let submit dma elems ~on_complete = Dma_engine.submit dma elems ~on_complete

(* ---------- Bus ---------- *)

let test_bus_memory_routing () =
  let _, mem, bus, _ = rig () in
  Bus.store_word bus 64 0xCAFEl;
  Alcotest.check Alcotest.int32 "read via bus" 0xCAFEl (Bus.load_word bus 64);
  Alcotest.check Alcotest.int32 "read via memory" 0xCAFEl (Phys_mem.read_word mem 64)

let test_bus_io_routing () =
  let _, _, bus, _ = rig () in
  let stored = ref [] in
  let handler =
    Bus.
      {
        io_load = (fun ~paddr -> Int32.of_int (paddr land 0xff));
        io_store = (fun ~paddr v -> stored := (paddr, v) :: !stored);
      }
  in
  Bus.register_io bus ~base:0x100000 ~size:4096 handler;
  Bus.store_word bus 0x100010 7l;
  Alcotest.(check (list (pair int int32))) "store routed" [ (0x100010, 7l) ] !stored;
  Alcotest.check Alcotest.int32 "load routed" 0x10l (Bus.load_word bus 0x100010)

let test_bus_overlap_rejected () =
  let _, _, bus, _ = rig () in
  let h = Bus.{ io_load = (fun ~paddr:_ -> 0l); io_store = (fun ~paddr:_ _ -> ()) } in
  Bus.register_io bus ~base:0x100000 ~size:4096 h;
  checkb "overlap raises" true
    (try Bus.register_io bus ~base:0x100800 ~size:4096 h; false
     with Invalid_argument _ -> true);
  (* adjacent is fine *)
  Bus.register_io bus ~base:0x101000 ~size:4096 h

let test_bus_machine_check () =
  let _, _, bus, _ = rig () in
  checkb "unmapped load raises" true
    (try ignore (Bus.load_word bus 0x900000); false
     with Invalid_argument _ -> true)

let test_bus_timing () =
  let _, _, bus, _ = rig () in
  let t = Bus.timing bus in
  checki "burst: setup + words*cost"
    (t.Bus.burst_setup_cycles + (256 * t.Bus.burst_word_cycles))
    (Bus.dma_burst_cycles bus ~nbytes:1024);
  checki "burst rounds up words"
    (t.Bus.burst_setup_cycles + (2 * t.Bus.burst_word_cycles))
    (Bus.dma_burst_cycles bus ~nbytes:5);
  checki "pio: one transaction per word" (256 * t.Bus.single_word_cycles)
    (Bus.pio_cycles bus ~nbytes:1024)

(* ---------- Device ports ---------- *)

let test_device_buffer () =
  let port, store = Device.buffer "d" ~size:128 in
  port.Device.dev_write ~addr:8 (Bytes.of_string "hi");
  Alcotest.check Alcotest.string "stored" "hi"
    (Bytes.to_string (Bytes.sub store 8 2));
  Alcotest.check Alcotest.bytes "read" (Bytes.of_string "hi")
    (port.Device.dev_read ~addr:8 ~len:2);
  checkb "writable in range" true (port.Device.writable ~addr:0);
  checkb "not writable out of range" false (port.Device.writable ~addr:128)

let test_device_null () =
  let port = Device.null "sink" in
  port.Device.dev_write ~addr:0 (Bytes.make 16 'x');
  Alcotest.check Alcotest.bytes "reads zeros" (Bytes.make 4 '\000')
    (port.Device.dev_read ~addr:0 ~len:4);
  checki "free" 0 (port.Device.access_cycles ~addr:0 ~len:4096)

(* ---------- Dma_engine: contiguous descriptors ---------- *)

let test_dma_mem_to_dev () =
  let engine, mem, _, dma = rig () in
  let port, store = Device.buffer "d" ~size:4096 in
  Phys_mem.write_bytes mem ~addr:100 (Bytes.of_string "payload!");
  let done_at = ref (-1) in
  (match
     submit dma
       (contiguous ~src:(Dma_engine.Mem 100)
          ~dst:(Dma_engine.Dev (port, 20)) ~nbytes:8)
       ~on_complete:(fun () -> done_at := Engine.now engine)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit failed: %a" Dma_engine.pp_error e);
  checkb "busy during transfer" true (Dma_engine.busy dma);
  checkb "data not yet moved" true (Bytes.get store 20 = '\000');
  Engine.run_until_idle engine;
  checkb "idle after" false (Dma_engine.busy dma);
  Alcotest.check Alcotest.string "moved" "payload!"
    (Bytes.to_string (Bytes.sub store 20 8));
  checkb "completion time positive" true (!done_at > 0)

let test_dma_dev_to_mem () =
  let engine, mem, _, dma = rig () in
  let port, store = Device.buffer "d" ~size:4096 in
  Bytes.blit_string "incoming" 0 store 0 8;
  (match
     submit dma
       (contiguous ~src:(Dma_engine.Dev (port, 0)) ~dst:(Dma_engine.Mem 500)
          ~nbytes:8)
       ~on_complete:ignore
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit failed: %a" Dma_engine.pp_error e);
  Engine.run_until_idle engine;
  Alcotest.check Alcotest.string "moved" "incoming"
    (Bytes.to_string (Phys_mem.read_bytes mem ~addr:500 ~len:8))

let test_dma_busy_rejected () =
  let _, _, _, dma = rig () in
  let port = Device.null "d" in
  ignore
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (port, 0))
          ~nbytes:64)
       ~on_complete:ignore);
  checkb "second submit refused" true
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (port, 0))
          ~nbytes:64)
       ~on_complete:ignore
     = Error Dma_engine.Busy)

let test_dma_unsupported_pairs () =
  let _, _, _, dma = rig () in
  let port = Device.null "d" in
  checkb "mem to mem" true
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Mem 64) ~nbytes:8)
       ~on_complete:ignore
     = Error Dma_engine.Unsupported_pair);
  checkb "dev to dev" true
    (submit dma
       (contiguous
          ~src:(Dma_engine.Dev (port, 0))
          ~dst:(Dma_engine.Dev (port, 64))
          ~nbytes:8)
       ~on_complete:ignore
     = Error Dma_engine.Unsupported_pair)

let test_dma_bad_sizes () =
  let _, _, _, dma = rig () in
  let port = Device.null "d" in
  checkb "zero" true
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (port, 0))
          ~nbytes:0)
       ~on_complete:ignore
     = Error Dma_engine.Bad_size);
  checkb "memory overrun" true
    (submit dma
       (contiguous
          ~src:(Dma_engine.Mem (8 * 4096 - 4))
          ~dst:(Dma_engine.Dev (port, 0)) ~nbytes:64)
       ~on_complete:ignore
     = Error Dma_engine.Bad_size)

let test_dma_device_refusal () =
  let _, _, _, dma = rig () in
  let port, _ = Device.buffer "d" ~size:64 in
  checkb "device refuses out-of-range dest" true
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 0)
          ~dst:(Dma_engine.Dev (port, 100))
          ~nbytes:8)
       ~on_complete:ignore
     = Error Dma_engine.Device_refused)

let test_dma_registers_and_remaining () =
  let engine, _, bus, dma = rig () in
  let port = Device.null "d" in
  ignore
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 4096) ~dst:(Dma_engine.Dev (port, 0))
          ~nbytes:1024)
       ~on_complete:ignore);
  checki "count register" 1024 (Dma_engine.count dma);
  Alcotest.(check (option int)) "memory-side base" (Some 4096)
    (Dma_engine.transfer_base dma);
  checki "remaining at start" 1024 (Dma_engine.remaining_bytes dma);
  let duration = Bus.dma_burst_cycles bus ~nbytes:1024 in
  Engine.advance engine (duration / 2);
  let rem = Dma_engine.remaining_bytes dma in
  checkb "about half remains" true (rem > 256 && rem < 768);
  checki "word multiple" 0 ((1024 - rem) land 3);
  Engine.run_until_idle engine;
  checki "zero when idle" 0 (Dma_engine.remaining_bytes dma);
  checki "count zero when idle" 0 (Dma_engine.count dma)

let test_dma_remaining_burst_aware () =
  let engine, _, bus, dma = rig () in
  let port = Device.null "d" in
  let timing = Bus.timing bus in
  ignore
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (port, 0))
          ~nbytes:256)
       ~on_complete:ignore);
  (* nothing moves during burst setup — the old linear estimate would
     already report progress here *)
  Engine.advance engine timing.Bus.burst_setup_cycles;
  checki "no progress during setup" 256 (Dma_engine.remaining_bytes dma);
  (* ten words into the data phase, exactly 40 bytes are on the wire *)
  Engine.advance engine (10 * timing.Bus.burst_word_cycles);
  checki "word-exact progress" (256 - 40) (Dma_engine.remaining_bytes dma);
  Engine.run_until_idle engine

let test_dma_page_in_flight () =
  let engine, _, _, dma = rig () in
  let port = Device.null "d" in
  ignore
    (submit dma
       (contiguous
          ~src:(Dma_engine.Mem (2 * 4096 + 2048))
          ~dst:(Dma_engine.Dev (port, 0)) ~nbytes:4096)
       ~on_complete:ignore);
  checkb "first page busy" true (Dma_engine.mem_page_in_flight dma ~page_size:4096 2);
  checkb "straddled page busy" true
    (Dma_engine.mem_page_in_flight dma ~page_size:4096 3);
  checkb "other page free" false
    (Dma_engine.mem_page_in_flight dma ~page_size:4096 4);
  Engine.run_until_idle engine;
  checkb "free after" false (Dma_engine.mem_page_in_flight dma ~page_size:4096 2)

let test_dma_abort () =
  let engine, _, _, dma = rig () in
  let port, store = Device.buffer "d" ~size:4096 in
  let completed = ref false in
  ignore
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (port, 0))
          ~nbytes:64)
       ~on_complete:(fun () -> completed := true));
  checkb "abort succeeds" true (Dma_engine.abort dma);
  checkb "idle immediately" false (Dma_engine.busy dma);
  Engine.run_until_idle engine;
  checkb "no completion callback" false !completed;
  checkb "no data moved" true (Bytes.get store 0 = '\000');
  checkb "abort when idle" false (Dma_engine.abort dma)

let test_dma_counters () =
  let engine, _, _, dma = rig () in
  let port = Device.null "d" in
  for _ = 1 to 3 do
    ignore
      (submit dma
         (contiguous ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (port, 0))
            ~nbytes:100)
         ~on_complete:ignore);
    Engine.run_until_idle engine
  done;
  checki "transfers" 3 (Dma_engine.transfers_completed dma);
  checki "bytes" 300 (Dma_engine.bytes_moved dma)

let test_dma_device_latency_counts () =
  let engine, _, bus, dma = rig () in
  let slow =
    { (Device.null "slow") with Device.access_cycles = (fun ~addr:_ ~len:_ -> 5000) }
  in
  let t0 = Engine.now engine in
  ignore
    (submit dma
       (contiguous ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (slow, 0))
          ~nbytes:64)
       ~on_complete:ignore);
  Engine.run_until_idle engine;
  checki "device latency added"
    (Bus.dma_burst_cycles bus ~nbytes:64 + 5000)
    (Engine.now engine - t0)

let test_dma_flat_contiguous () =
  (* a one-element list is the flat transfer: data moves and the burst
     cost matches the bus model exactly *)
  let engine, mem, bus, dma = rig () in
  let port, store = Device.buffer "d" ~size:4096 in
  Phys_mem.write_bytes mem ~addr:0 (Bytes.of_string "via-flat");
  let t0 = Engine.now engine in
  (match
     Dma_engine.submit dma
       (contiguous ~src:(Dma_engine.Mem 0)
          ~dst:(Dma_engine.Dev (port, 0))
          ~nbytes:8)
       ~on_complete:ignore
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit failed: %a" Dma_engine.pp_error e);
  Engine.run_until_idle engine;
  Alcotest.check Alcotest.string "moved" "via-flat"
    (Bytes.to_string (Bytes.sub store 0 8));
  checki "flat cost unchanged"
    (Bus.dma_burst_cycles bus ~nbytes:8)
    (Engine.now engine - t0)

(* ---------- Dma_engine: multi-element transfers ---------- *)

let test_dma_strided () =
  let engine, mem, _, dma = rig () in
  let port, store = Device.buffer "d" ~size:4096 in
  (* a 4x8 tile out of a 32-byte-pitch matrix *)
  for row = 0 to 3 do
    Phys_mem.write_bytes mem ~addr:(row * 32)
      (Bytes.of_string (Printf.sprintf "row%dxxxx" row))
  done;
  (match
     submit dma
       (strided ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (port, 0))
          ~stride:32 ~chunk:8 ~reps:4)
       ~on_complete:ignore
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit failed: %a" Dma_engine.pp_error e);
  checki "count is total" 32 (Dma_engine.count dma);
  Engine.run_until_idle engine;
  Alcotest.check Alcotest.string "rows packed densely"
    "row0xxxxrow1xxxxrow2xxxxrow3xxxx"
    (Bytes.to_string (Bytes.sub store 0 32))

let test_dma_sg_overhead_monotone () =
  (* equal total bytes, rising element count: duration must rise
     strictly (per-descriptor fetch + setup), and one element must cost
     exactly the contiguous price *)
  let port = Device.null "d" in
  let total = 4096 in
  let run_with elems_n =
    let engine, _, bus, dma = rig () in
    let len = total / elems_n in
    let elems =
      List.init elems_n (fun i ->
          Descriptor.
            {
              src = Dma_engine.Mem (i * len);
              dst = Dma_engine.Dev (port, i * len);
              len;
            })
    in
    let t0 = Engine.now engine in
    (match
       submit dma elems ~on_complete:ignore
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "submit failed: %a" Dma_engine.pp_error e);
    Engine.run_until_idle engine;
    (Engine.now engine - t0, bus)
  in
  let d1, bus = run_with 1 in
  checki "one element = contiguous cost" (Bus.dma_burst_cycles bus ~nbytes:total) d1;
  let durations = List.map (fun n -> fst (run_with n)) [ 1; 4; 16; 64; 256 ] in
  let rec strictly_rising = function
    | a :: (b :: _ as rest) -> a < b && strictly_rising rest
    | _ -> true
  in
  checkb "per-element overhead strictly rising" true (strictly_rising durations);
  (* and the knee is the modelled cost: fetch + setup per extra element *)
  let timing = Bus.timing bus in
  let fetch = Midend.desc_fetch_cycles bus in
  let d4 = List.nth durations 1 in
  checki "4-element overhead = 3 x (fetch + setup)"
    (3 * (fetch + timing.Bus.burst_setup_cycles))
    (d4 - d1)

let test_dma_sg_zero_length_rejected () =
  let _, _, _, dma = rig () in
  let port = Device.null "d" in
  let elems =
    [
      Descriptor.{ src = Dma_engine.Mem 0; dst = Dma_engine.Dev (port, 0); len = 8 };
      Descriptor.{ src = Dma_engine.Mem 64; dst = Dma_engine.Dev (port, 8); len = 0 };
    ]
  in
  checkb "zero-length element rejected" true
    (submit dma elems ~on_complete:ignore
     = Error Dma_engine.Bad_size);
  checkb "empty list rejected" true
    (submit dma [] ~on_complete:ignore
     = Error Dma_engine.Bad_size)

let test_dma_abort_mid_sg () =
  let engine, mem, _, dma = rig () in
  let port, store = Device.buffer "d" ~size:4096 in
  Phys_mem.write_bytes mem ~addr:0 (Bytes.make 64 'a');
  let completed = ref false in
  let elems =
    List.init 4 (fun i ->
        Descriptor.
          {
            src = Dma_engine.Mem (i * 16);
            dst = Dma_engine.Dev (port, i * 16);
            len = 16;
          })
  in
  (match
     submit dma elems ~on_complete:(fun () -> completed := true)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit failed: %a" Dma_engine.pp_error e);
  (* advance past the first two elements' bursts, then abort: the
     deposit is atomic at completion, so nothing may have landed *)
  checki "transfer visible" 64 (Dma_engine.count dma);
  Engine.advance engine 100;
  checkb "still busy mid-list" true (Dma_engine.busy dma);
  checkb "abort mid-list succeeds" true (Dma_engine.abort dma);
  Engine.run_until_idle engine;
  checkb "no completion" false !completed;
  checkb "no partial data" true
    (Bytes.for_all (fun c -> c = '\000') (Bytes.sub store 0 64));
  checki "nothing counted" 0 (Dma_engine.bytes_moved dma)

let test_dma_sg_pages_in_flight () =
  let engine, _, _, dma = rig () in
  let port = Device.null "d" in
  let elems =
    [
      Descriptor.{ src = Dma_engine.Mem 0; dst = Dma_engine.Dev (port, 0); len = 8 };
      Descriptor.
        { src = Dma_engine.Mem (5 * 4096); dst = Dma_engine.Dev (port, 8); len = 8 };
    ]
  in
  ignore (submit dma elems ~on_complete:ignore);
  checkb "first element's page busy" true
    (Dma_engine.mem_page_in_flight dma ~page_size:4096 0);
  checkb "second element's page busy" true
    (Dma_engine.mem_page_in_flight dma ~page_size:4096 5);
  checkb "untouched page free" false
    (Dma_engine.mem_page_in_flight dma ~page_size:4096 3);
  Engine.run_until_idle engine

(* ---------- qcheck: element list vs naive memcpy oracle ---------- *)

let mem_bytes = 8 * 4096
let dev_size = 4096

let gen_descriptor =
  let open QCheck.Gen in
  let addr max_len = int_range 0 (mem_bytes - max_len) in
  let dev_addr max_len = int_range 0 (dev_size - max_len) in
  let gen_sg =
    let* n = int_range 1 8 in
    let* elems =
      list_repeat n
        (let* len = int_range 1 64 in
         let* s = addr len in
         let* d = dev_addr len in
         return (s, d, len))
    in
    return (`Sg elems)
  in
  let gen_strided =
    let* chunk = int_range 1 32 in
    let* reps = int_range 1 8 in
    let* stride = int_range chunk 128 in
    let span = ((reps - 1) * stride) + chunk in
    let* s = int_range 0 (mem_bytes - span) in
    let* d = dev_addr (reps * chunk) in
    return (`Strided (s, d, stride, chunk, reps))
  in
  let gen_contig =
    let* len = int_range 1 512 in
    let* s = addr len in
    let* d = dev_addr len in
    return (`Contig (s, d, len))
  in
  frequency [ (2, gen_contig); (2, gen_strided); (3, gen_sg) ]

let shape_to_elements port = function
  | `Contig (s, d, len) ->
      contiguous ~src:(Dma_engine.Mem s) ~dst:(Dma_engine.Dev (port, d)) ~nbytes:len
  | `Strided (s, d, stride, chunk, reps) ->
      strided ~src:(Dma_engine.Mem s) ~dst:(Dma_engine.Dev (port, d)) ~stride
        ~chunk ~reps
  | `Sg elems ->
      List.map
        (fun (s, d, len) ->
          Descriptor.
            { src = Dma_engine.Mem s; dst = Dma_engine.Dev (port, d); len })
        elems

(* the naive oracle: apply each element as a memcpy, in order *)
let oracle_apply ~mem_img ~dev_img elems =
  List.iter
    (fun (e : Descriptor.element) ->
      match (e.src, e.dst) with
      | Dma_engine.Mem s, Dma_engine.Dev (_, d) ->
          Bytes.blit mem_img s dev_img d e.len
      | _ -> assert false)
    elems

let prop_descriptor_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"descriptor moves = memcpy oracle"
    (QCheck.make gen_descriptor)
    (fun shape ->
      let engine, mem, _, dma = rig () in
      let port, store = Device.buffer "d" ~size:dev_size in
      (* deterministic pseudo-random memory image *)
      let mem_img =
        Bytes.init mem_bytes (fun i -> Char.chr ((i * 131) land 0xff))
      in
      Phys_mem.write_bytes mem ~addr:0 mem_img;
      let elems = shape_to_elements port shape in
      let total =
        match shape with
        | `Contig (_, _, len) -> len
        | `Strided (_, _, _, chunk, reps) -> chunk * reps
        | `Sg es -> List.fold_left (fun acc (_, _, len) -> acc + len) 0 es
      in
      match Dma_engine.submit dma elems ~on_complete:ignore with
      | Error e ->
          QCheck.Test.fail_reportf "refused valid descriptor: %a"
            Dma_engine.pp_error e
      | Ok () ->
          Engine.run_until_idle engine;
          let dev_img = Bytes.make dev_size '\000' in
          oracle_apply ~mem_img ~dev_img elems;
          Bytes.equal dev_img store
          && Dma_engine.bytes_moved dma = total
          && total
             = List.fold_left
                 (fun acc (e : Descriptor.element) -> acc + e.len)
                 0 elems)

(* ---------- progress counter: binary search vs the linear fold ---------- *)

module Backend = Udma_dma.Backend

(* The counter by its definition: every burst's words on the wire,
   folded over the whole plan. The binary search must match it
   exactly. *)
let reference_bytes_done (plan : Midend.plan) ~elapsed =
  let d = plan.Midend.desc in
  let acc = ref 0 in
  for i = 0 to Midend.bursts plan - 1 do
    let into = elapsed - Midend.data_start plan i in
    if into > 0 then begin
      let words = Midend.words plan i in
      let words_done =
        if plan.Midend.word_cycles <= 0 then words else into / plan.Midend.word_cycles
      in
      acc := !acc + min (Descriptor.length d i) (min words_done words * 4)
    end
  done;
  !acc

type plan_case = {
  setup : int;
  word : int;
  fetch : int;
  dev : int;
  lens : int list;
}

let gen_plan_case =
  let open QCheck.Gen in
  let* setup = int_range 0 20 in
  let* word = int_range 0 4 in
  let* fetch = int_range 0 40 in
  let* dev = int_range 0 20 in
  let* n = int_range 1 300 in
  let* lens = list_repeat n (int_range 1 32) in
  return { setup; word; fetch; dev; lens }

let print_plan_case c =
  Printf.sprintf "setup=%d word=%d fetch=%d dev=%d lens=[%s]" c.setup c.word
    c.fetch c.dev
    (String.concat ";" (List.map string_of_int c.lens))

let plan_of_case c =
  let mem = Phys_mem.create ~frames:8 ~page_size:4096 in
  let bus =
    Bus.create
      ~timing:
        { Bus.single_word_cycles = 100; burst_setup_cycles = c.setup;
          burst_word_cycles = c.word }
      mem
  in
  let port =
    { (Device.null "d") with Device.access_cycles = (fun ~addr:_ ~len:_ -> c.dev) }
  in
  let elems =
    List.mapi
      (fun i len ->
        Descriptor.{ src = Dma_engine.Mem (i * 32); dst = Dma_engine.Dev (port, i * 32); len })
      c.lens
  in
  Midend.plan ~bus ~desc_fetch_cycles:c.fetch elems

let back_to_back (plan : Midend.plan) =
  let d = plan.Midend.desc in
  let n = Midend.bursts plan in
  let ok = ref (n > 0 && Midend.start_cycle plan 0 = 0) in
  let bytes = ref 0 in
  for i = 0 to n - 1 do
    if Descriptor.bytes_before d i <> !bytes then ok := false;
    bytes := !bytes + Descriptor.length d i;
    let next =
      if i + 1 < n then Midend.start_cycle plan (i + 1) else plan.Midend.total_cycles
    in
    if Midend.start_cycle plan i + Midend.burst_cycles plan i <> next then ok := false
  done;
  !ok && !bytes = plan.Midend.total_bytes

let prop_progress_counter_matches_fold =
  QCheck.Test.make ~count:40
    ~name:"bytes_done = linear fold at every cycle; bursts back to back"
    (QCheck.make ~print:print_plan_case gen_plan_case)
    (fun c ->
      let plan = plan_of_case c in
      if not (back_to_back plan) then
        QCheck.Test.fail_report "bursts not laid out back to back";
      (* [begun]'s hint takes no part in the result: a fresh search, one
         resumed from the last probe (forward, then backward in time)
         and one from an arbitrary count all read the fold *)
      let n = Midend.bursts plan in
      let check ~elapsed ~from what =
        let want = reference_bytes_done plan ~elapsed in
        let begun = Backend.begun plan ~elapsed ~from in
        let got = Backend.bytes_done plan ~elapsed ~begun in
        if got <> want then
          QCheck.Test.fail_reportf "elapsed %d, %s from %d: bytes_done %d, fold %d"
            elapsed what from got want;
        begun
      in
      let last = ref 0 in
      for elapsed = 0 to plan.Midend.total_cycles + 1 do
        ignore (check ~elapsed ~from:0 "fresh");
        ignore (check ~elapsed ~from:(elapsed * 7919 mod (n + 1)) "hinted");
        last := check ~elapsed ~from:!last "resumed"
      done;
      for elapsed = plan.Midend.total_cycles + 1 downto 0 do
        last := check ~elapsed ~from:!last "resumed backward"
      done;
      true)

let test_remaining_monotone_strided () =
  let engine, _, _, dma = rig () in
  let port =
    { (Device.null "ni") with Device.access_cycles = (fun ~addr:_ ~len:_ -> 15) }
  in
  let elems =
    strided ~src:(Dma_engine.Mem 0) ~dst:(Dma_engine.Dev (port, 0)) ~stride:8
      ~chunk:4 ~reps:256
  in
  (match submit dma elems ~on_complete:ignore with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit failed: %a" Dma_engine.pp_error e);
  checki "starts at the full count" 1024 (Dma_engine.remaining_bytes dma);
  let prev = ref 1024 and cycles = ref 0 in
  while Dma_engine.busy dma do
    Engine.advance engine 1;
    incr cycles;
    let r = Dma_engine.remaining_bytes dma in
    if r > !prev then Alcotest.failf "cycle %d: remaining rose %d -> %d" !cycles !prev r;
    if r land 3 <> 0 then Alcotest.failf "cycle %d: remaining %d not whole words" !cycles r;
    prev := r
  done;
  checki "drains to zero" 0 !prev

let () =
  Alcotest.run "udma_dma"
    [
      ( "bus",
        [
          Alcotest.test_case "memory routing" `Quick test_bus_memory_routing;
          Alcotest.test_case "io routing" `Quick test_bus_io_routing;
          Alcotest.test_case "overlap rejected" `Quick test_bus_overlap_rejected;
          Alcotest.test_case "machine check" `Quick test_bus_machine_check;
          Alcotest.test_case "timing" `Quick test_bus_timing;
        ] );
      ( "device",
        [
          Alcotest.test_case "buffer port" `Quick test_device_buffer;
          Alcotest.test_case "null port" `Quick test_device_null;
        ] );
      ( "dma_engine",
        [
          Alcotest.test_case "mem to dev" `Quick test_dma_mem_to_dev;
          Alcotest.test_case "dev to mem" `Quick test_dma_dev_to_mem;
          Alcotest.test_case "busy rejected" `Quick test_dma_busy_rejected;
          Alcotest.test_case "unsupported pairs" `Quick test_dma_unsupported_pairs;
          Alcotest.test_case "bad sizes" `Quick test_dma_bad_sizes;
          Alcotest.test_case "device refusal" `Quick test_dma_device_refusal;
          Alcotest.test_case "registers + remaining" `Quick
            test_dma_registers_and_remaining;
          Alcotest.test_case "remaining is burst-aware" `Quick
            test_dma_remaining_burst_aware;
          Alcotest.test_case "page in flight" `Quick test_dma_page_in_flight;
          Alcotest.test_case "abort" `Quick test_dma_abort;
          Alcotest.test_case "counters" `Quick test_dma_counters;
          Alcotest.test_case "device latency" `Quick test_dma_device_latency_counts;
          Alcotest.test_case "flat contiguous submit" `Quick
            test_dma_flat_contiguous;
        ] );
      ( "descriptors",
        [
          Alcotest.test_case "strided tile" `Quick test_dma_strided;
          Alcotest.test_case "sg overhead monotone" `Quick
            test_dma_sg_overhead_monotone;
          Alcotest.test_case "zero-length rejected" `Quick
            test_dma_sg_zero_length_rejected;
          Alcotest.test_case "abort mid-sg" `Quick test_dma_abort_mid_sg;
          Alcotest.test_case "sg pages in flight" `Quick
            test_dma_sg_pages_in_flight;
          QCheck_alcotest.to_alcotest prop_descriptor_matches_oracle;
        ] );
      ( "progress",
        [
          QCheck_alcotest.to_alcotest prop_progress_counter_matches_fold;
          Alcotest.test_case "remaining monotone, 256-element strided" `Quick
            test_remaining_monotone_strided;
        ] );
    ]
