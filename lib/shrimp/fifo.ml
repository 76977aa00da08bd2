(* The packets are [buf.((head + i) land (capacity - 1))] for
   [i < len], the ring's capacity a power of two (0 before the first
   push). Every other slot holds [vacant]: a popped packet left in its
   slot would stay reachable, so each minor collection would promote
   it and its payload into the major heap. *)
type t = {
  capacity : int;
  mutable buf : Packet.t array;
  mutable head : int;
  mutable len : int;
  mutable used : int;
  mutable rejections : int;
}

let create ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Fifo.create: capacity";
  { capacity = capacity_bytes; buf = [||]; head = 0; len = 0; used = 0;
    rejections = 0 }

let length t = t.len

let vacant =
  { Packet.src_node = 0; dst_node = 0; dst_paddr = 0; payload = Bytes.empty;
    seq = 0 }

(* Double the ring, unwrapping it to start at 0. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (Int.max 8 (2 * cap)) vacant in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push t pkt =
  let sz = Packet.size_bytes pkt in
  if t.used + sz > t.capacity then begin
    t.rejections <- t.rejections + 1;
    false
  end
  else begin
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- pkt;
    t.len <- t.len + 1;
    t.used <- t.used + sz;
    true
  end

let pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty";
  let pkt = t.buf.(t.head) in
  t.buf.(t.head) <- vacant;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  t.used <- t.used - Packet.size_bytes pkt;
  pkt

let rejections t = t.rejections
