type t = {
  capacity : int;
  q : Packet.t Queue.t;
  mutable used : int;
  mutable rejections : int;
}

let create ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Fifo.create: capacity";
  { capacity = capacity_bytes; q = Queue.create (); used = 0; rejections = 0 }

let length t = Queue.length t.q

let push t pkt =
  let sz = Packet.size_bytes pkt in
  if t.used + sz > t.capacity then begin
    t.rejections <- t.rejections + 1;
    false
  end
  else begin
    Queue.push pkt t.q;
    t.used <- t.used + sz;
    true
  end

let pop t =
  match Queue.take_opt t.q with
  | Some pkt ->
      t.used <- t.used - Packet.size_bytes pkt;
      Some pkt
  | None -> None

let rejections t = t.rejections
