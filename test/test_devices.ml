(* Unit tests for the example devices: frame buffer, disk, PIO FIFO. *)

module Engine = Udma_sim.Engine
module Device = Udma_dma.Device
module Frame_buffer = Udma_devices.Frame_buffer
module Disk = Udma_devices.Disk
module Pio_fifo = Udma_devices.Pio_fifo

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Frame buffer ---------- *)

let test_fb_pixels () =
  let fb = Frame_buffer.create ~width:16 ~height:8 in
  checki "size" (16 * 8 * 4) (Frame_buffer.size_bytes fb);
  Frame_buffer.set_pixel fb ~x:3 ~y:2 0xAABBCCDDl;
  Alcotest.check Alcotest.int32 "pixel" 0xAABBCCDDl
    (Frame_buffer.get_pixel fb ~x:3 ~y:2);
  checkb "out of range" true
    (try ignore (Frame_buffer.get_pixel fb ~x:16 ~y:0); false
     with Invalid_argument _ -> true)

let test_fb_port_addressing () =
  let fb = Frame_buffer.create ~width:16 ~height:8 in
  let port = Frame_buffer.port fb in
  (* writing via the port at a pixel's byte offset sets that pixel *)
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 0x01020304l;
  port.Device.dev_write ~addr:((2 * 16 + 5) * 4) b;
  Alcotest.check Alcotest.int32 "port write hits pixel" 0x01020304l
    (Frame_buffer.get_pixel fb ~x:5 ~y:2);
  Alcotest.check Alcotest.bytes "port read" b
    (port.Device.dev_read ~addr:((2 * 16 + 5) * 4) ~len:4)

let test_fb_row_and_checksum () =
  let fb = Frame_buffer.create ~width:8 ~height:4 in
  let c0 = Frame_buffer.checksum fb in
  Frame_buffer.set_pixel fb ~x:0 ~y:1 1l;
  checkb "checksum changes" true (Frame_buffer.checksum fb <> c0);
  checki "row length" (8 * 4) (Bytes.length (Frame_buffer.row fb ~y:1));
  checki "pages" 1 (Frame_buffer.pages fb ~page_size:4096)

(* ---------- Disk ---------- *)

let test_disk_blocks () =
  let d = Disk.create () in
  let block = Bytes.make 4096 'D' in
  Disk.write_block d 5 block;
  Alcotest.check Alcotest.bytes "block roundtrip" block (Disk.read_block d 5);
  checkb "wrong size rejected" true
    (try Disk.write_block d 0 (Bytes.make 100 'x'); false
     with Invalid_argument _ -> true)

let test_disk_seek_model () =
  let d = Disk.create () in
  let g = Disk.geometry d in
  let port = Disk.port d in
  (* access at block 0: no head movement *)
  let c0 = port.Device.access_cycles ~addr:0 ~len:4096 in
  checki "no seek distance"
    (g.Disk.seek_base_cycles + g.Disk.transfer_cycles_per_block) c0;
  checki "head at block 0" 0 (Disk.head_position d);
  (* jump to block 100: distance charged *)
  let c1 = port.Device.access_cycles ~addr:(100 * 4096) ~len:4096 in
  checki "seek to 100"
    (g.Disk.seek_base_cycles + (100 * g.Disk.seek_per_block_cycles)
     + g.Disk.transfer_cycles_per_block)
    c1;
  checki "head moved" 100 (Disk.head_position d);
  checki "one real seek" 1 (Disk.seeks d)

let test_disk_multiblock_access () =
  let d = Disk.create () in
  let g = Disk.geometry d in
  let port = Disk.port d in
  (* 3 blocks in one access: pay media transfer for each *)
  let c = port.Device.access_cycles ~addr:0 ~len:(3 * 4096) in
  checki "three blocks"
    (g.Disk.seek_base_cycles + (3 * g.Disk.transfer_cycles_per_block))
    c

let test_disk_port_data () =
  let d = Disk.create () in
  let port = Disk.port d in
  port.Device.dev_write ~addr:8192 (Bytes.of_string "ondisk");
  Alcotest.check Alcotest.string "readable" "ondisk"
    (Bytes.to_string (port.Device.dev_read ~addr:8192 ~len:6));
  Alcotest.check Alcotest.string "block api agrees" "ondisk"
    (Bytes.to_string (Bytes.sub (Disk.read_block d 2) 0 6))

(* ---------- PIO FIFO ---------- *)

let test_pio_word_transport () =
  let engine = Engine.create () in
  let a = Pio_fifo.create ~engine () and b = Pio_fifo.create ~engine () in
  Pio_fifo.connect a b;
  let ha = Pio_fifo.handler a and hb = Pio_fifo.handler b in
  ha.Udma_dma.Bus.io_store ~paddr:0 42l;
  ha.Udma_dma.Bus.io_store ~paddr:0 43l;
  checki "nothing before latency" 0 (Pio_fifo.rx_pending b);
  Engine.run_until_idle engine;
  checki "both arrived" 2 (Pio_fifo.rx_pending b);
  Alcotest.check Alcotest.int32 "count reg" 2l (hb.Udma_dma.Bus.io_load ~paddr:8);
  Alcotest.check Alcotest.int32 "pop 1" 42l (hb.Udma_dma.Bus.io_load ~paddr:4);
  Alcotest.check Alcotest.int32 "pop 2" 43l (hb.Udma_dma.Bus.io_load ~paddr:4);
  Alcotest.check Alcotest.int32 "empty pops zero" 0l
    (hb.Udma_dma.Bus.io_load ~paddr:4);
  checki "tx counter" 2 (Pio_fifo.tx_pushed a);
  checki "rx counter" 2 (Pio_fifo.rx_delivered b)

let test_pio_latency () =
  let engine = Engine.create () in
  let a = Pio_fifo.create ~engine ~link_latency:100 () in
  let b = Pio_fifo.create ~engine ~link_latency:100 () in
  Pio_fifo.connect a b;
  (Pio_fifo.handler a).Udma_dma.Bus.io_store ~paddr:0 1l;
  Engine.advance engine 99;
  checki "not yet" 0 (Pio_fifo.rx_pending b);
  Engine.advance engine 1;
  checki "arrived at latency" 1 (Pio_fifo.rx_pending b)

let test_pio_overrun () =
  let engine = Engine.create () in
  let a = Pio_fifo.create ~engine ~capacity_words:4 () in
  let b = Pio_fifo.create ~engine ~capacity_words:4 () in
  Pio_fifo.connect a b;
  let ha = Pio_fifo.handler a in
  for i = 1 to 10 do
    ha.Udma_dma.Bus.io_store ~paddr:0 (Int32.of_int i)
  done;
  Engine.run_until_idle engine;
  checki "capacity kept" 4 (Pio_fifo.rx_pending b);
  checki "overruns counted" 6 (Pio_fifo.overruns b)

let test_pio_unconnected () =
  let engine = Engine.create () in
  let a = Pio_fifo.create ~engine () in
  (Pio_fifo.handler a).Udma_dma.Bus.io_store ~paddr:0 1l;
  Engine.run_until_idle engine;
  checki "pushed counted" 1 (Pio_fifo.tx_pushed a)

(* ---------- devices driven through the full UDMA stack ---------- *)

module Initiator = Udma.Initiator
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module Kernel = Udma_os.Kernel

let machine_with port ~pages =
  let m = M.create () in
  let udma = Option.get m.M.udma in
  Udma_engine.attach_device udma ~base_page:0 ~pages ~port ();
  let proc = Scheduler.spawn m ~name:"p" in
  for i = 0 to pages - 1 do
    match Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i ~writable:true with
    | Ok () -> ()
    | Error _ -> failwith "grant"
  done;
  (m, proc)

let test_disk_via_udma_roundtrip () =
  let d = Disk.create () in
  let m, proc = machine_with (Disk.port d) ~pages:16 in
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let data = Bytes.init 4096 (fun i -> Char.chr ((i * 5) land 0xff)) in
  Kernel.write_user m proc ~vaddr:buf data;
  let cpu = Kernel.user_cpu m proc in
  (* write block 3 via user-level DMA *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:3 ~offset:0))
       ~nbytes:4096 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write: %a" Initiator.pp_error e);
  Udma_sim.Engine.run_until_idle m.M.engine;
  Alcotest.check Alcotest.bytes "on the platters" data (Disk.read_block d 3);
  (* read it back into a second buffer (dev -> mem, I3 in play) *)
  let buf2 = Kernel.alloc_buffer m proc ~bytes:4096 in
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:3 ~offset:0))
       ~dst:(Initiator.Memory buf2) ~nbytes:4096 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "read: %a" Initiator.pp_error e);
  Udma_sim.Engine.run_until_idle m.M.engine;
  Alcotest.check Alcotest.bytes "read back" data
    (Kernel.read_user m proc ~vaddr:buf2 ~len:4096);
  checkb "disk latency charged" true (Disk.seeks d >= 1)

let test_framebuffer_via_udma () =
  let fb = Frame_buffer.create ~width:64 ~height:16 in
  let m, proc = machine_with (Frame_buffer.port fb) ~pages:1 in
  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let row = Bytes.init (64 * 4) (fun i -> Char.chr (i land 0xff)) in
  Kernel.write_user m proc ~vaddr:buf row;
  let cpu = Kernel.user_cpu m proc in
  (* blit one scanline to row 2 *)
  (match
     Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:(2 * 64 * 4)))
       ~nbytes:(64 * 4) ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "blit: %a" Initiator.pp_error e);
  Udma_sim.Engine.run_until_idle m.M.engine;
  Alcotest.check Alcotest.bytes "scanline landed" row (Frame_buffer.row fb ~y:2);
  (* read pixels back into memory *)
  let buf2 = Kernel.alloc_buffer m proc ~bytes:4096 in
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:(2 * 64 * 4)))
       ~dst:(Initiator.Memory buf2) ~nbytes:(64 * 4) ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "readback: %a" Initiator.pp_error e);
  Udma_sim.Engine.run_until_idle m.M.engine;
  Alcotest.check Alcotest.bytes "pixels read back" row
    (Kernel.read_user m proc ~vaddr:buf2 ~len:(64 * 4))

let () =
  Alcotest.run "udma_devices"
    [
      ( "frame_buffer",
        [
          Alcotest.test_case "pixels" `Quick test_fb_pixels;
          Alcotest.test_case "port addressing" `Quick test_fb_port_addressing;
          Alcotest.test_case "row + checksum" `Quick test_fb_row_and_checksum;
        ] );
      ( "disk",
        [
          Alcotest.test_case "blocks" `Quick test_disk_blocks;
          Alcotest.test_case "seek model" `Quick test_disk_seek_model;
          Alcotest.test_case "multi-block access" `Quick test_disk_multiblock_access;
          Alcotest.test_case "port data" `Quick test_disk_port_data;
        ] );
      ( "via-udma",
        [
          Alcotest.test_case "disk roundtrip" `Quick test_disk_via_udma_roundtrip;
          Alcotest.test_case "framebuffer blit + readback" `Quick
            test_framebuffer_via_udma;
        ] );
      ( "pio_fifo",
        [
          Alcotest.test_case "word transport" `Quick test_pio_word_transport;
          Alcotest.test_case "latency" `Quick test_pio_latency;
          Alcotest.test_case "overrun" `Quick test_pio_overrun;
          Alcotest.test_case "unconnected" `Quick test_pio_unconnected;
        ] );
    ]
