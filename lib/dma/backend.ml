(* Backend: realize a plan against the bus — progress accounting while
   in flight, data movement at completion. *)

module Phys_mem = Udma_memory.Phys_mem

let data_start (b : Midend.burst) = b.start_cycle + b.overhead_cycles

(* Bursts lie back to back, so their data-phase starts never decrease.
   Binary-search the last burst whose data phase has begun: every
   earlier burst ended before it started, so counts whole, and no later
   burst has begun. The counter is that burst's prefix sum plus its
   own words on the wire. *)
let rec begun bursts ~elapsed lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if data_start bursts.(mid) < elapsed then begun bursts ~elapsed (mid + 1) hi
    else begun bursts ~elapsed lo mid

let bytes_done (plan : Midend.plan) ~elapsed =
  let bursts = plan.Midend.bursts in
  match begun bursts ~elapsed 0 (Array.length bursts) with
  | 0 -> 0
  | k ->
      let b = bursts.(k - 1) in
      let words_done =
        if b.word_cycles <= 0 then b.words
        else (elapsed - data_start b) / b.word_cycles
      in
      b.bytes_before + min b.element.Descriptor.len (min words_done b.words * 4)

let move_element bus (e : Descriptor.element) =
  let mem = Bus.memory bus in
  match (e.src, e.dst) with
  | Descriptor.Mem src, Descriptor.Dev (p, dst) ->
      let data = p.Device.sink_buffer ~len:e.len in
      Phys_mem.read_into mem ~addr:src data;
      p.Device.dev_write ~addr:dst data
  | Descriptor.Dev (p, src), Descriptor.Mem dst ->
      let data = p.Device.dev_read ~addr:src ~len:e.len in
      Phys_mem.write_bytes mem ~addr:dst data
  | Descriptor.Mem _, Descriptor.Mem _ | Descriptor.Dev _, Descriptor.Dev _ ->
      assert false (* refused by the frontend *)

let execute bus (plan : Midend.plan) =
  Array.iter (fun (b : Midend.burst) -> move_element bus b.element)
    plan.Midend.bursts
