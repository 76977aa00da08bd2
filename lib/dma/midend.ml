(* Midend: decompose flat elements into timed bursts with descriptor
   fetch/setup cost. *)

type burst = {
  element : Descriptor.element;
  start_cycle : int;
  overhead_cycles : int;
  word_cycles : int;
  words : int;
  bytes_before : int;
}

type plan = { bursts : burst array; total_cycles : int; total_bytes : int }

let words_of_bytes n = (n + 3) / 4

(* A descriptor record is modelled as four words (source, destination,
   length, next) fetched over the same bus the data moves on: the fetch
   costs one 16-byte burst. The first element's registers are loaded by
   the initiating store sequence, so only elements after the first pay
   the fetch. This makes the per-element overhead self-calibrating
   against the bus timing instead of a free parameter. *)
let desc_fetch_cycles bus = Bus.dma_burst_cycles bus ~nbytes:16

let dev_cycles (e : Descriptor.element) =
  match (e.src, e.dst) with
  | Descriptor.Dev (p, a), _ | _, Descriptor.Dev (p, a) ->
      p.Device.access_cycles ~addr:a ~len:e.len
  | Descriptor.Mem _, Descriptor.Mem _ -> 0

let burst_cycles b = b.overhead_cycles + (b.words * b.word_cycles)

let plan ~bus ?desc_fetch_cycles:fetch elems =
  let timing = Bus.timing bus in
  let fetch =
    match fetch with Some c -> c | None -> desc_fetch_cycles bus
  in
  let burst ~fetch ~start_cycle ~bytes_before (e : Descriptor.element) =
    {
      element = e;
      start_cycle;
      overhead_cycles = fetch + timing.Bus.burst_setup_cycles + dev_cycles e;
      word_cycles = timing.Bus.burst_word_cycles;
      words = words_of_bytes e.len;
      bytes_before;
    }
  in
  match elems with
  | [] -> { bursts = [||]; total_cycles = 0; total_bytes = 0 }
  | e0 :: rest ->
      (* the first burst's registers came with the initiation: no fetch *)
      let b0 = burst ~fetch:0 ~start_cycle:0 ~bytes_before:0 e0 in
      let bursts = Array.make (List.length elems) b0 in
      let rec fill i cursor bytes = function
        | [] -> { bursts; total_cycles = cursor; total_bytes = bytes }
        | (e : Descriptor.element) :: rest ->
            let b = burst ~fetch ~start_cycle:cursor ~bytes_before:bytes e in
            bursts.(i) <- b;
            fill (i + 1) (cursor + burst_cycles b) (bytes + e.len) rest
      in
      fill 1 (burst_cycles b0) e0.len rest
