(* Midend: lay a descriptor's elements out as timed bursts with
   descriptor fetch/setup cost. *)

type plan = {
  desc : Descriptor.t;
  data_starts : int array;
  word_cycles : int;
  total_cycles : int;
  total_bytes : int;
}

let words_of_bytes n = (n + 3) / 4

(* A descriptor record is modelled as four words (source, destination,
   length, next) fetched over the same bus the data moves on: the fetch
   costs one 16-byte burst. The first element's registers are loaded by
   the initiating store sequence, so only elements after the first pay
   the fetch. This makes the per-element overhead self-calibrating
   against the bus timing instead of a free parameter. *)
let desc_fetch_cycles bus = Bus.dma_burst_cycles bus ~nbytes:16

let dev_cycles d i len =
  match (Descriptor.src_side d i, Descriptor.dst_side d i) with
  | Descriptor.Dev (p, _), _ ->
      p.Device.access_cycles ~addr:(Descriptor.src_addr d i) ~len
  | _, Descriptor.Dev (p, _) ->
      p.Device.access_cycles ~addr:(Descriptor.dst_addr d i) ~len
  | Descriptor.Mem _, Descriptor.Mem _ -> 0

let plan_desc ~bus ?desc_fetch_cycles:fetch d =
  let timing = Bus.timing bus in
  let fetch =
    match fetch with Some c -> c | None -> desc_fetch_cycles bus
  in
  let n = Descriptor.count d in
  let data_starts = Array.make n 0 in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    let len = Descriptor.length d i in
    (* the first burst's registers came with the initiation: no fetch *)
    let data_start =
      !cursor
      + (if i = 0 then 0 else fetch)
      + timing.Bus.burst_setup_cycles + dev_cycles d i len
    in
    data_starts.(i) <- data_start;
    cursor := data_start + (words_of_bytes len * timing.Bus.burst_word_cycles)
  done;
  {
    desc = d;
    data_starts;
    word_cycles = timing.Bus.burst_word_cycles;
    total_cycles = !cursor;
    total_bytes = Descriptor.total_bytes d;
  }

let plan ~bus ?desc_fetch_cycles elems =
  plan_desc ~bus ?desc_fetch_cycles (Descriptor.of_list elems)

let[@inline] bursts p = Array.length p.data_starts

let[@inline] words p i = words_of_bytes (Descriptor.length p.desc i)

let[@inline] data_start p i = p.data_starts.(i)

let burst_end p i = p.data_starts.(i) + (words p i * p.word_cycles)

let start_cycle p i = if i = 0 then 0 else burst_end p (i - 1)

let burst_cycles p i = burst_end p i - start_cycle p i
