module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Initiator = Udma.Initiator
module M = Udma_os.Machine
module Kernel = Udma_os.Kernel

type channel = {
  system : System.t;
  snd_node : int;
  rcv_node : int;
  rcv_proc : Udma_os.Proc.t;
  first_index : int;
  pages : int;
  page_size : int;
  export : System.export;
  ctrl_vaddr : int; (* sender staging page: holds the flag word *)
  mutable seq : int;
}

let flag_offset ch = (ch.pages * ch.page_size) - 4

let capacity ch = flag_offset ch

let recv_vaddr ch = ch.export.System.vaddr

let connect system ~sender:(snd_node, snd_proc) ~receiver:(rcv_node, rcv_proc)
    ?(first_index = 0) ~pages () =
  if pages <= 0 then invalid_arg "Messaging.connect: pages must be positive";
  let export = System.export_buffer system ~node:rcv_node ~proc:rcv_proc ~pages in
  System.import_export system ~node:snd_node ~proc:snd_proc ~first_index export;
  let snd_machine = (System.node system snd_node).System.machine in
  let ctrl_vaddr = Kernel.alloc_buffer snd_machine snd_proc ~bytes:4096 in
  (* dirty the staging page once so it can be a transfer source without
     further faults on the fast path *)
  Kernel.write_user snd_machine snd_proc ~vaddr:ctrl_vaddr
    (Bytes.make 4 '\000');
  {
    system;
    snd_node;
    rcv_node;
    rcv_proc;
    first_index;
    pages;
    page_size = Layout.page_size snd_machine.M.layout;
    export;
    ctrl_vaddr;
    seq = 0;
  }

type send_error = Transfer of Initiator.error

let pp_send_error ppf (Transfer e) =
  Format.fprintf ppf "transfer failed: %a" Initiator.pp_error e

let dev_addr ch ~offset =
  let snd_machine = (System.node ch.system ch.snd_node).System.machine in
  Layout.dev_proxy_addr snd_machine.M.layout
    ~page:(ch.first_index + (offset / ch.page_size))
    ~offset:(offset mod ch.page_size)

let dev_vaddr ch ~offset = dev_addr ch ~offset

let check_size ch nbytes =
  if nbytes <= 0 || nbytes land 3 <> 0 || nbytes > capacity ch then
    invalid_arg
      (Printf.sprintf
         "Messaging.send: nbytes %d (must be a positive 4-byte multiple <= %d)"
         nbytes (capacity ch))

let snd_layout ch =
  (System.node ch.system ch.snd_node).System.machine.M.layout

let send_nowait ch cpu ~src_vaddr ~nbytes ?(pipelined = false) ?config () =
  check_size ch nbytes;
  let transfer =
    if pipelined then Initiator.transfer_queued else Initiator.transfer
  in
  match
    transfer cpu ~layout:(snd_layout ch) ?config
      ~src:(Initiator.Memory src_vaddr)
      ~dst:(Initiator.Device (dev_addr ch ~offset:0))
      ~nbytes ()
  with
  | Ok _ -> Ok ()
  | Error e -> Error (Transfer e)

let send_with transfer ch cpu ~src_vaddr ~nbytes ?config () =
  check_size ch nbytes;
  let layout = snd_layout ch in
  match
    transfer cpu ~layout ?config
      ~src:(Initiator.Memory src_vaddr)
      ~dst:(Initiator.Device (dev_addr ch ~offset:0))
      ~nbytes ()
  with
  | Error e -> Error (Transfer e)
  | Ok _ -> (
      ch.seq <- ch.seq + 1;
      (* write the sequence number into the staging word, then push
         that word through the same deliberate-update path *)
      cpu.Initiator.store ~vaddr:ch.ctrl_vaddr (Int32.of_int ch.seq);
      match
        Initiator.transfer cpu ~layout ?config
          ~src:(Initiator.Memory ch.ctrl_vaddr)
          ~dst:(Initiator.Device (dev_addr ch ~offset:(flag_offset ch)))
          ~nbytes:4 ()
      with
      | Ok _ -> Ok ch.seq
      | Error e -> Error (Transfer e))

let send ch cpu ~src_vaddr ~nbytes ?config () =
  send_with
    (fun cpu ~layout ?config ~src ~dst ~nbytes () ->
      Initiator.transfer cpu ~layout ?config ~src ~dst ~nbytes ())
    ch cpu ~src_vaddr ~nbytes ?config ()

let send_pipelined ch cpu ~src_vaddr ~nbytes ?config () =
  send_with
    (fun cpu ~layout ?config ~src ~dst ~nbytes () ->
      Initiator.transfer_queued cpu ~layout ?config ~src ~dst ~nbytes ())
    ch cpu ~src_vaddr ~nbytes ?config ()

let send_strided ch cpu ~src_vaddr ~stride ~chunk ~nbytes ?config () =
  if chunk <= 0 || stride < chunk then
    invalid_arg "Messaging.send_strided: need chunk > 0 and stride >= chunk";
  send_with
    (fun cpu ~layout ?config ~src ~dst ~nbytes () ->
      Initiator.transfer_shaped cpu ~layout ?config ~src ~dst
        ~shape:(Initiator.Strided_shape { stride; chunk })
        ~nbytes ())
    ch cpu ~src_vaddr ~nbytes ?config ()

(* Hardware-level enqueue: hand the payload straight to the sending
   node's network interface, addressed by the channel's pinned export
   frames — the same destination physical address the NIPT path
   computes. The packet still crosses the NI outgoing FIFO, the wire
   serialisation, the router (with contention when enabled) and the
   receive-side DMA deposit; only the sender's CPU/UDMA initiation is
   skipped. Load generators charge that initiation cost separately (a
   calibrated per-message occupancy), which lets many nodes inject
   concurrently on the one shared clock. *)
let inject ch ?(offset = 0) data =
  let len = Bytes.length data in
  if len <= 0 || offset < 0 || offset + len > capacity ch then
    invalid_arg
      (Printf.sprintf "Messaging.inject: %d bytes at offset %d (capacity %d)"
         len offset (capacity ch));
  let page = offset / ch.page_size and poff = offset mod ch.page_size in
  if poff + len > ch.page_size then
    invalid_arg "Messaging.inject: payload must fit one page (one packet)";
  let frame = List.nth ch.export.System.frames page in
  let ni = (System.node ch.system ch.snd_node).System.ni in
  Network_interface.send_raw ni ~dst_node:ch.rcv_node
    ~dst_paddr:((frame * ch.page_size) + poff)
    data

let recv_poll ch cpu =
  let flag_vaddr = recv_vaddr ch + flag_offset ch in
  Int32.to_int (cpu.Initiator.load ~vaddr:flag_vaddr)

let recv_wait ch cpu ~seq ?(max_polls = 10_000_000) () =
  let engine = System.engine ch.system in
  let rec loop polls =
    if polls >= max_polls then Error "Messaging.recv_wait: poll budget exhausted"
    else if recv_poll ch cpu >= seq then Ok polls
    else begin
      (* if nothing is in flight the flag can never change *)
      if Engine.pending_events engine = 0 && recv_poll ch cpu < seq then
        Error "Messaging.recv_wait: no pending events, flag will never arrive"
      else loop (polls + 1)
    end
  in
  loop 0

let read_payload ch ~len =
  let machine = (System.node ch.system ch.rcv_node).System.machine in
  Kernel.read_user machine ch.rcv_proc ~vaddr:(recv_vaddr ch) ~len
