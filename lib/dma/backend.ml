(* Backend: realize a plan against the bus — progress accounting while
   in flight, data movement at completion. *)

module Phys_mem = Udma_memory.Phys_mem

(* Bursts lie back to back, so their data-phase starts never decrease.
   [begun] counts the bursts whose data phase has begun: every earlier
   burst ended before the last of them started, so counts whole, and
   no later burst has begun. The count is the first index whose data
   phase starts at or after [elapsed]. *)
let rec search plan ~elapsed lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Midend.data_start plan mid < elapsed then search plan ~elapsed (mid + 1) hi
    else search plan ~elapsed lo mid

(* From a count [lo] known to have begun, double the step until a
   burst has not begun, then search the last step. *)
let rec gallop plan ~elapsed lo step =
  let n = Midend.bursts plan in
  let probe = lo + step - 1 in
  if probe >= n then search plan ~elapsed lo n
  else if Midend.data_start plan probe < elapsed then
    gallop plan ~elapsed (probe + 1) (2 * step)
  else search plan ~elapsed lo probe

let begun plan ~elapsed ~from =
  if from > 0 && Midend.data_start plan (from - 1) >= elapsed then
    search plan ~elapsed 0 from
  else gallop plan ~elapsed from 1

let bytes_done (plan : Midend.plan) ~elapsed ~begun =
  if begun = 0 then 0
  else
    let i = begun - 1 in
    let words = Midend.words plan i in
    let words_done =
      if plan.Midend.word_cycles <= 0 then words
      else (elapsed - Midend.data_start plan i) / plan.Midend.word_cycles
    in
    let d = plan.Midend.desc in
    Descriptor.bytes_before d i
    + Int.min (Descriptor.length d i) (Int.min words_done words * 4)

let move_element bus d i =
  let mem = Bus.memory bus in
  let len = Descriptor.length d i in
  match (Descriptor.src_side d i, Descriptor.dst_side d i) with
  | Descriptor.Mem _, Descriptor.Dev (p, _) ->
      let data = p.Device.sink_buffer ~len in
      Phys_mem.read_into mem ~addr:(Descriptor.src_addr d i) data;
      p.Device.dev_write ~addr:(Descriptor.dst_addr d i) data
  | Descriptor.Dev (p, _), Descriptor.Mem _ ->
      let data = p.Device.dev_read ~addr:(Descriptor.src_addr d i) ~len in
      Phys_mem.write_bytes mem ~addr:(Descriptor.dst_addr d i) data
  | Descriptor.Mem _, Descriptor.Mem _ | Descriptor.Dev _, Descriptor.Dev _ ->
      assert false (* refused by the frontend *)

let execute bus (plan : Midend.plan) =
  for i = 0 to Midend.bursts plan - 1 do
    move_element bus plan.Midend.desc i
  done
