(* Backend: realize a plan against the bus — progress accounting while
   in flight, data movement at completion. *)

module Phys_mem = Udma_memory.Phys_mem

let data_start (b : Midend.burst) = b.start_cycle + b.overhead_cycles

(* Bursts lie back to back, so their data-phase starts never decrease.
   [begun] counts the bursts whose data phase has begun: every earlier
   burst ended before the last of them started, so counts whole, and
   no later burst has begun. The count is the first index whose data
   phase starts at or after [elapsed]. *)
let rec search bursts ~elapsed lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if data_start bursts.(mid) < elapsed then search bursts ~elapsed (mid + 1) hi
    else search bursts ~elapsed lo mid

(* From a count [lo] known to have begun, double the step until a
   burst has not begun, then search the last step. *)
let rec gallop bursts ~elapsed lo step =
  let n = Array.length bursts in
  let probe = lo + step - 1 in
  if probe >= n then search bursts ~elapsed lo n
  else if data_start bursts.(probe) < elapsed then
    gallop bursts ~elapsed (probe + 1) (2 * step)
  else search bursts ~elapsed lo probe

let begun (plan : Midend.plan) ~elapsed ~from =
  let bursts = plan.Midend.bursts in
  if from > 0 && data_start bursts.(from - 1) >= elapsed then
    search bursts ~elapsed 0 from
  else gallop bursts ~elapsed from 1

let bytes_done (plan : Midend.plan) ~elapsed ~begun =
  if begun = 0 then 0
  else
    let b = plan.Midend.bursts.(begun - 1) in
    let words_done =
      if b.word_cycles <= 0 then b.words
      else (elapsed - data_start b) / b.word_cycles
    in
    b.bytes_before
    + Int.min b.element.Descriptor.len (Int.min words_done b.words * 4)

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
