(* Quickstart: the UDMA mechanism end to end on one simulated node.

   Builds a machine (CPU + MMU + DMA + UDMA engine), attaches a simple
   buffer device, and walks through exactly what the paper describes:
   the kernel grants a device-proxy mapping once, and from then on a
   user process starts fully protected DMA transfers with two ordinary
   memory references — no system call on the transfer path.

   Run with: dune exec examples/quickstart.exe *)

module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Device = Udma_dma.Device
module Status = Udma.Status
module Initiator = Udma.Initiator
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module Kernel = Udma_os.Kernel
module Cost_model = Udma_os.Cost_model

let () =
  (* -- hardware + kernel ------------------------------------------- *)
  let m = M.create () in
  let udma = Option.get m.M.udma in
  let port, device_memory = Device.buffer "demo-device" ~size:65536 in
  Udma_engine.attach_device udma ~base_page:0 ~pages:16 ~port ();

  (* -- one process, one kernel grant ------------------------------- *)
  let proc = Scheduler.spawn m ~name:"app" in
  (match
     Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true
   with
  | Ok () -> print_endline "kernel: granted device-proxy page 0"
  | Error e -> Format.printf "grant failed: %a@." Syscall.pp_error e);

  let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
  let message = Bytes.of_string "hello from user-level DMA!" in
  Kernel.write_user m proc ~vaddr:buf message;

  (* -- the two-reference transfer ----------------------------------- *)
  let cpu = Kernel.user_cpu m proc in
  let before = Engine.now m.M.engine in
  (match
     Initiator.transfer cpu ~layout:m.M.layout
       ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
       ~nbytes:(Bytes.length message + 3 land lnot 3 |> max 28)
       ()
   with
  | Ok stats ->
      Printf.printf
        "user: transfer done — %d piece(s), %d STORE/LOAD pair(s), %d \
         cycles (%.2f us)\n"
        stats.Initiator.pieces stats.Initiator.pairs stats.Initiator.cycles
        (Cost_model.us_of_cycles m.M.costs stats.Initiator.cycles)
  | Error e -> Format.printf "transfer failed: %a@." Initiator.pp_error e);
  ignore before;

  Engine.run_until_idle m.M.engine;
  Printf.printf "device: received %S\n"
    (Bytes.to_string (Bytes.sub device_memory 0 (Bytes.length message)));

  (* -- what the status word looks like ------------------------------ *)
  let st =
    Status.decode
      (Udma_engine.handle_load udma ~paddr:(Layout.mem_proxy_base m.M.layout))
  in
  Format.printf "probe of the idle engine: %a@." Status.pp st;

  (* -- the cost picture --------------------------------------------- *)
  let init =
    Cost_model.udma_initiation_estimate m.M.costs ~alignment_check_cycles:100
  in
  Printf.printf
    "initiation: %d cycles = %.2f us — the paper's 2.8 us (section 8)\n" init
    (Cost_model.us_of_cycles m.M.costs init);
  print_endline "quickstart: OK"
