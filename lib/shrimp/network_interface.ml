module Engine = Udma_sim.Engine
module Trace = Udma_sim.Trace
module Event = Udma_obs.Event
module Metrics = Udma_obs.Metrics
module Layout = Udma_mmu.Layout
module Pte = Udma_mmu.Pte
module Phys_mem = Udma_memory.Phys_mem
module Bus = Udma_dma.Bus
module Device = Udma_dma.Device
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Backend = Udma_protect.Backend

type config = {
  packetize_cycles : int;
  out_fifo_bytes : int;
  in_fifo_bytes : int;
  link_word_cycles : int;
}

let default_config =
  {
    packetize_cycles = 15;
    out_fifo_bytes = 65536;
    in_fifo_bytes = 65536;
    link_word_cycles = 1;
  }

type t = {
  id : int;
  machine : M.t;
  config : config;
  backend : Backend.t;
  pool : Payload_pool.t;
  out_fifo : Fifo.t;
  in_fifo : Fifo.t;
  mutable router : Router.t option;
  mutable out_lane : Engine.lane;  (* departures: pops [out_fifo] *)
  mutable in_lane : Engine.lane;  (* deposits: pops [in_fifo] *)
  mutable next_seq : int;
  m_packets_sent : Metrics.counter;
  m_bytes_sent : Metrics.counter;
  m_send_drops : Metrics.counter;
  m_packets_received : Metrics.counter;
  m_bytes_received : Metrics.counter;
  m_receive_drops : Metrics.counter;
  m_delivery_errors : Metrics.counter;
}

let backend t = t.backend

let set_router t router = t.router <- Some router

let validate t ~dev_addr ~nbytes =
  let page_size = Layout.page_size t.machine.M.layout in
  Backend.validate_bits t.backend ~dev_addr ~nbytes ~page_size

(* Launch one packet: serialise on the outgoing link, then route. The
   link is busy until its last departure, so departure times never
   decrease: they run on [out_lane], one firing per packet in
   [out_fifo]. *)
let launch t pkt =
  match t.router with
  | None -> Metrics.bump t.m_send_drops
  | Some _ ->
      if Fifo.push t.out_fifo pkt then begin
        let now = Engine.now t.machine.M.engine in
        let words = (Packet.size_bytes pkt + 3) / 4 in
        let start = Int.max now (Engine.lane_last t.out_lane) in
        Engine.lane_at t.out_lane
          ~time:(start + (words * t.config.link_word_cycles))
      end
      else Metrics.bump t.m_send_drops

(* The DMA engine hands over one element's data, in a buffer it read
   for this call alone (taken from the pool by [port]'s
   [sink_buffer]): the packet takes it as its payload, so the bytes
   are captured once, when the element moves. *)
let dev_write t ~addr data =
  let page_size = Layout.page_size t.machine.M.layout in
  let page = addr / page_size and offset = addr mod page_size in
  match Backend.decode t.backend ~index:page with
  | None ->
      (* validated at initiation; a vanished entry is a kernel bug *)
      Metrics.bump t.m_send_drops
  | Some { Backend.dst_node; dst_frame; owner = _ } ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      if Trace.active t.machine.M.trace then
        Trace.record t.machine.M.trace
          ~time:(Engine.now t.machine.M.engine) Event.Ni
          (Event.Packetize { dst_node; nbytes = Bytes.length data });
      launch t
        {
          Packet.src_node = t.id;
          dst_node;
          dst_paddr = (dst_frame * page_size) + offset;
          payload = data;
          seq;
        }

(* Callers ([Messaging.inject], the automatic-update snooper) own
   [data] and may reuse it: copy it at send time, into a pool buffer. *)
let send_raw t ~dst_node ~dst_paddr data =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let len = Bytes.length data in
  let payload = Payload_pool.take t.pool len in
  Bytes.blit data 0 payload 0 len;
  launch t { Packet.src_node = t.id; dst_node; dst_paddr; payload; seq }

(* EISA DMA on the receiving node: write payload to physical memory
   and mark the page dirty so the data survives paging (paper §6 I3 —
   here the hardware path, with the receive mapping pinned at import
   time). Once written, the payload goes back to the pool: this is the
   only place a buffer returns. A packet dropped anywhere else leaves
   its buffer to the GC. *)
let deposit t pkt =
  let mem = t.machine.M.mem in
  let paddr = pkt.Packet.dst_paddr in
  let len = Bytes.length pkt.Packet.payload in
  if paddr < 0 || paddr + len > Phys_mem.size mem then
    Metrics.bump t.m_delivery_errors
  else begin
    Phys_mem.write_bytes mem ~addr:paddr pkt.Packet.payload;
    Payload_pool.give t.pool pkt.Packet.payload;
    Metrics.bump t.m_packets_received;
    Metrics.bump_by t.m_bytes_received len;
    let o = M.owner t.machine (paddr / Layout.page_size t.machine.M.layout) in
    if o != M.no_owner then o.M.pte.Pte.dirty <- true
  end

(* A packet leaves on the outgoing link: the front of [out_fifo]. *)
let depart t =
  let pkt = Fifo.pop t.out_fifo in
  Metrics.bump t.m_packets_sent;
  Metrics.bump_by t.m_bytes_sent (Bytes.length pkt.Packet.payload);
  match t.router with Some router -> Router.send router pkt | None -> ()

let create ~id ~machine ?(config = default_config) ~pool () =
  let counter = Metrics.counter machine.M.metrics in
  (* a placeholder until the lanes, whose events need [t], exist *)
  let idle = Engine.lane machine.M.engine ignore in
  let t =
    {
      id;
      machine;
      config;
      backend =
        Backend.create Backend.Proxy
          ~entries:(Layout.dev_pages machine.M.layout) ();
      pool;
      out_fifo = Fifo.create ~capacity_bytes:config.out_fifo_bytes;
      in_fifo = Fifo.create ~capacity_bytes:config.in_fifo_bytes;
      router = None;
      out_lane = idle;
      in_lane = idle;
      next_seq = 0;
      m_packets_sent = counter "ni.packets_sent";
      m_bytes_sent = counter "ni.bytes_sent";
      m_send_drops = counter "ni.send_drops";
      m_packets_received = counter "ni.packets_received";
      m_bytes_received = counter "ni.bytes_received";
      m_receive_drops = counter "ni.receive_drops";
      m_delivery_errors = counter "ni.delivery_errors";
    }
  in
  (* Link serialisation is wire time; the receive-side deposit is the
     NI device writing memory. *)
  t.out_lane <-
    Engine.lane machine.M.engine ~cat:Engine.Profiler.Wire (fun _ -> depart t);
  t.in_lane <-
    Engine.lane machine.M.engine ~cat:Engine.Profiler.Device (fun _ ->
        deposit t (Fifo.pop t.in_fifo));
  t

(* The receive DMA is busy until its last deposit: the deposits run on
   [in_lane], one firing per packet in [in_fifo]. *)
let receive t pkt =
  if Fifo.push t.in_fifo pkt then begin
    let now = Engine.now t.machine.M.engine in
    let dma_cycles =
      Bus.dma_burst_cycles t.machine.M.bus ~nbytes:(Packet.size_bytes pkt)
    in
    let start = Int.max now (Engine.lane_last t.in_lane) in
    Engine.lane_at t.in_lane ~time:(start + dma_cycles)
  end
  else Metrics.bump t.m_receive_drops

let port t =
  Device.
    {
      name = Printf.sprintf "shrimp-ni%d" t.id;
      sink_buffer = (fun ~len -> Payload_pool.take t.pool len);
      dev_write = (fun ~addr b -> dev_write t ~addr b);
      dev_read =
        (fun ~addr:_ ~len ->
          (* send-only: never called because [readable] is false *)
          Bytes.make len '\000');
      access_cycles = (fun ~addr:_ ~len:_ -> t.config.packetize_cycles);
      writable =
        (fun ~addr ->
          let page_size = Layout.page_size t.machine.M.layout in
          Option.is_some
            (Backend.decode t.backend ~index:(addr / page_size)));
      readable = (fun ~addr:_ -> false);
    }

let attach t =
  match t.machine.M.udma with
  | None -> failwith "Network_interface.attach: machine has no UDMA engine"
  | Some udma ->
      Udma_engine.attach_device udma ~base_page:0
        ~pages:(Layout.dev_pages t.machine.M.layout) ~port:(port t)
        ~validate:(fun ~dev_addr ~nbytes -> validate t ~dev_addr ~nbytes)
        ()

let packets_sent t = Metrics.read t.m_packets_sent
let packets_received t = Metrics.read t.m_packets_received
let bytes_received t = Metrics.read t.m_bytes_received
