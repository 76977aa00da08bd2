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

let addr_of = function Mem a -> a | Dev (_, a) -> a

let submit t elements ~on_complete =
  if busy t then Error Busy
  else
    match Frontend.validate ~mem_size:(mem_size t) elements with
    | Error _ as e -> e
    | Ok () ->
        let plan = Midend.plan ~bus:t.bus elements in
        let duration = plan.Midend.total_cycles in
        let id = t.next_id in
        t.next_id <- t.next_id + 1;
        let started_at = Engine.now t.engine in
        let xfer = { plan; started_at; duration; on_complete; id; begun = 0 } in
        t.current <- Some xfer;
        if Trace.active t.trace then
          Array.iter
            (fun (b : Midend.burst) ->
              let e = b.Midend.element in
              Trace.record t.trace
                ~time:(started_at + b.Midend.start_cycle)
                Event.Dma
                (Event.Dma_burst
                   {
                     src = addr_of e.Descriptor.src;
                     dst = addr_of e.Descriptor.dst;
                     nbytes = e.Descriptor.len;
                     duration = Midend.burst_cycles b;
                   }))
            plan.Midend.bursts;
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

(* The frontend refuses an empty element list, so a transfer always has a
   first burst. *)
let first_element t =
  Option.map (fun x -> x.plan.Midend.bursts.(0).Midend.element) t.current

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

let transfer_base t =
  match first_element t with
  | Some e -> (
      match (e.Descriptor.src, e.Descriptor.dst) with
      | Mem a, _ | _, Mem a -> Some a
      | _ -> None)
  | None -> None

let mem_page_in_flight t ~page_size frame =
  match t.current with
  | None -> false
  | Some x ->
      Array.exists
        (fun ({ Midend.element = e; _ } : Midend.burst) ->
          let mem_addr =
            match (e.src, e.dst) with
            | Mem a, _ | _, Mem a -> Some a
            | _ -> None
          in
          match mem_addr with
          | None -> false
          | Some a ->
              let lo = a / page_size and hi = (a + e.len - 1) / page_size in
              frame >= lo && frame <= hi)
        x.plan.Midend.bursts

let abort t =
  match t.current with
  | Some _ ->
      t.current <- None;
      true
  | None -> false

let transfers_completed t = Metrics.read t.m_transfers
let bytes_moved t = Metrics.read t.m_bytes_moved
