module Engine = Udma_sim.Engine
module Trace = Udma_sim.Trace
module Event = Udma_obs.Event
module Metrics = Udma_obs.Metrics
module Phys_mem = Udma_memory.Phys_mem

type endpoint = Descriptor.endpoint = Mem of int | Dev of Device.port * int

type error = Descriptor.error =
  | Busy
  | Bad_size
  | Unsupported_pair
  | Device_refused

let pp_error = Descriptor.pp_error

type transfer = {
  plan : Midend.plan;
  started_at : int;
  duration : int;
  on_complete : unit -> unit;
  id : int;
  mutable begun : int;  (* bursts begun at the last probe: a hint *)
}

type t = {
  engine : Engine.t;
  bus : Bus.t;
  trace : Trace.t;
  m_transfers : Metrics.counter;
  m_bytes_moved : Metrics.counter;
  mutable current : transfer option;
  mutable next_id : int;
}

let create ~engine ~bus ?(trace = Trace.create ~enabled:false ())
    ?(metrics = Metrics.create ()) () =
  {
    engine;
    bus;
    trace;
    m_transfers = Metrics.counter metrics "dma.transfers";
    m_bytes_moved = Metrics.counter metrics "dma.bytes_moved";
    current = None;
    next_id = 0;
  }

let busy t = Option.is_some t.current

let mem_size t = Phys_mem.size (Bus.memory t.bus)

let submit_desc t desc ~on_complete =
  if busy t then Error Busy
  else
    match Frontend.validate ~mem_size:(mem_size t) desc with
    | Error _ as e -> e
    | Ok () ->
        let plan = Midend.plan_desc ~bus:t.bus desc in
        let duration = plan.Midend.total_cycles in
        let id = t.next_id in
        t.next_id <- t.next_id + 1;
        let started_at = Engine.now t.engine in
        let xfer = { plan; started_at; duration; on_complete; id; begun = 0 } in
        t.current <- Some xfer;
        if Trace.active t.trace then
          for i = 0 to Midend.bursts plan - 1 do
            Trace.record t.trace
              ~time:(started_at + Midend.start_cycle plan i)
              Event.Dma
              (Event.Dma_burst
                 {
                   src = Descriptor.src_addr desc i;
                   dst = Descriptor.dst_addr desc i;
                   nbytes = Descriptor.length desc i;
                   duration = Midend.burst_cycles plan i;
                 })
          done;
        (* The cycles the clock jumps to reach the completion are the
           burst itself: attribute them to the Dma category. *)
        Engine.schedule t.engine ~cat:Engine.Profiler.Dma ~delay:duration
          (fun _ ->
            (* An abort may have retired this transfer already. *)
            match t.current with
            | Some cur when cur.id = id ->
                Backend.execute t.bus cur.plan;
                t.current <- None;
                Metrics.bump t.m_transfers;
                Metrics.bump_by t.m_bytes_moved cur.plan.Midend.total_bytes;
                cur.on_complete ()
            | Some _ | None -> ());
        Ok ()

let submit t elements ~on_complete =
  submit_desc t (Descriptor.of_list elements) ~on_complete

let count t =
  match t.current with Some x -> x.plan.Midend.total_bytes | None -> 0

let remaining_bytes t =
  match t.current with
  | None -> 0
  | Some x ->
      let elapsed = Engine.now t.engine - x.started_at in
      if x.duration <= 0 || elapsed >= x.duration then 0
      else
        (* probes of one transfer move forward in time: resume the
           burst search where the last one stopped *)
        let begun = Backend.begun x.plan ~elapsed ~from:x.begun in
        x.begun <- begun;
        let done_bytes = Backend.bytes_done x.plan ~elapsed ~begun in
        (* report whole words, as the hardware counter would *)
        x.plan.Midend.total_bytes - (done_bytes land lnot 3)

(* The frontend refuses a descriptor with no element, so a transfer
   always has an element 0. *)
let transfer_base t =
  match t.current with
  | None -> None
  | Some x -> (
      let d = x.plan.Midend.desc in
      match (Descriptor.src_side d 0, Descriptor.dst_side d 0) with
      | Mem _, _ -> Some (Descriptor.src_addr d 0)
      | _, Mem _ -> Some (Descriptor.dst_addr d 0)
      | Dev _, Dev _ -> None)

let mem_page_in_flight t ~page_size frame =
  match t.current with
  | None -> false
  | Some x ->
      let d = x.plan.Midend.desc in
      let covers a len = frame >= a / page_size && frame <= (a + len - 1) / page_size in
      let rec from i =
        i < Descriptor.count d
        && ((match (Descriptor.src_side d i, Descriptor.dst_side d i) with
            | Mem _, _ -> covers (Descriptor.src_addr d i) (Descriptor.length d i)
            | _, Mem _ -> covers (Descriptor.dst_addr d i) (Descriptor.length d i)
            | Dev _, Dev _ -> false)
           || from (i + 1))
      in
      from 0

let abort t =
  match t.current with
  | Some _ ->
      t.current <- None;
      true
  | None -> false

let transfers_completed t = Metrics.read t.m_transfers
let bytes_moved t = Metrics.read t.m_bytes_moved
