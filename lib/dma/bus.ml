type timing = {
  single_word_cycles : int;
  burst_setup_cycles : int;
  burst_word_cycles : int;
}

let default_timing =
  { single_word_cycles = 100; burst_setup_cycles = 16; burst_word_cycles = 3 }

type io_handler = {
  io_load : paddr:int -> int32;
  io_store : paddr:int -> int32 -> unit;
}

type range = { base : int; size : int; handler : io_handler }

type t = {
  timing : timing;
  memory : Udma_memory.Phys_mem.t;
  mutable ranges : range list;
  mutable snoops : (paddr:int -> int32 -> unit) list;
}

let create ?(timing = default_timing) memory =
  { timing; memory; ranges = []; snoops = [] }

let add_snoop t f = t.snoops <- f :: t.snoops

let timing t = t.timing
let memory t = t.memory

let overlaps a_base a_size b_base b_size =
  a_base < b_base + b_size && b_base < a_base + a_size

let register_io t ~base ~size handler =
  if base < 0 || size <= 0 then invalid_arg "Bus.register_io: bad range";
  List.iter
    (fun r ->
      if overlaps base size r.base r.size then
        invalid_arg
          (Printf.sprintf "Bus.register_io: [%#x,+%d) overlaps [%#x,+%d)" base
             size r.base r.size))
    t.ranges;
  t.ranges <- { base; size; handler } :: t.ranges

let is_memory t paddr =
  paddr >= 0 && paddr < Udma_memory.Phys_mem.size t.memory

(* The handler of the I/O range holding [paddr]; [Not_found] when none
   does (the address is unmapped). *)
let rec io_handler paddr = function
  | [] -> raise Not_found
  | r :: rest ->
      if paddr >= r.base && paddr < r.base + r.size then r.handler
      else io_handler paddr rest

let machine_check op paddr =
  invalid_arg (Printf.sprintf "Bus.%s: machine check at %#x" op paddr)

let load_word t paddr =
  if is_memory t paddr then Udma_memory.Phys_mem.read_word t.memory paddr
  else
    match io_handler paddr t.ranges with
    | h -> h.io_load ~paddr
    | exception Not_found -> machine_check "load_word" paddr

let store_word t paddr v =
  if is_memory t paddr then begin
    Udma_memory.Phys_mem.write_word t.memory paddr v;
    List.iter (fun f -> f ~paddr v) t.snoops
  end
  else
    match io_handler paddr t.ranges with
    | h -> h.io_store ~paddr v
    | exception Not_found -> machine_check "store_word" paddr

let words_of_bytes nbytes = (nbytes + 3) / 4

let dma_burst_cycles t ~nbytes =
  if nbytes < 0 then invalid_arg "Bus.dma_burst_cycles: negative size";
  t.timing.burst_setup_cycles + (words_of_bytes nbytes * t.timing.burst_word_cycles)

let pio_cycles t ~nbytes =
  if nbytes < 0 then invalid_arg "Bus.pio_cycles: negative size";
  words_of_bytes nbytes * t.timing.single_word_cycles
