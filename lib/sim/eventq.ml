type 'a entry = { time : int; key : int; seq : int; payload : 'a }

(* [heap.(0 .. size - 1)] is a binary min-heap under [before]. Every
   slot at or beyond [size] holds [filler ()], so the queue never keeps
   a popped or cleared payload (and the closure and everything it
   captures) reachable. *)
type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

(* The one entry every vacated slot shares. Its payload is [()] cast to
   ['a]; that is sound only because no slot at or beyond [size] is ever
   read, so the payload is never used at type ['a]. *)
let filler_unit = { time = max_int; key = max_int; seq = max_int; payload = () }

let filler () : 'a entry = Obj.magic filler_unit

let initial_capacity = 64

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

(* Entry ordering: earlier time first, then the caller-supplied key,
   then FIFO among equal (time, key). Sequence numbers are unique, so
   this is a total order and the pop order does not depend on the heap's
   shape. *)
let[@inline] before a b =
  a.time < b.time
  || (a.time = b.time
      && (a.key < b.key || (a.key = b.key && a.seq < b.seq)))

let grow q =
  let cap = Array.length q.heap in
  let heap = Array.make (max initial_capacity (cap * 2)) (filler ()) in
  Array.blit q.heap 0 heap 0 q.size;
  q.heap <- heap

(* Both sifts move a hole rather than swapping: each level copies one
   entry into the hole, and [e] is written once where the hole stops. *)
let rec sift_up h i e =
  if i = 0 then h.(0) <- e
  else
    let parent = (i - 1) / 2 in
    let p = h.(parent) in
    if before e p then begin
      h.(i) <- p;
      sift_up h parent e
    end
    else h.(i) <- e

let rec sift_down h n i e =
  let left = (2 * i) + 1 in
  if left >= n then h.(i) <- e
  else
    let right = left + 1 in
    let child =
      if right < n && before h.(right) h.(left) then right else left
    in
    let c = h.(child) in
    if before c e then begin
      h.(i) <- c;
      sift_down h n child e
    end
    else h.(i) <- e

let push q ~time ?(key = 0) payload =
  if time < 0 then invalid_arg "Eventq.push: negative time";
  let e = { time; key; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then grow q;
  let i = q.size in
  q.size <- i + 1;
  sift_up q.heap i e

let min_time q = if q.size = 0 then max_int else q.heap.(0).time

let pop_payload q =
  if q.size = 0 then invalid_arg "Eventq.pop_payload: empty queue";
  let h = q.heap in
  let top = h.(0) in
  let n = q.size - 1 in
  q.size <- n;
  let last = h.(n) in
  h.(n) <- filler ();
  if n > 0 then sift_down h n 0 last;
  top.payload

let peek_time q = if q.size = 0 then None else Some q.heap.(0).time

let pop q =
  if q.size = 0 then None
  else
    let time = q.heap.(0).time in
    Some (time, pop_payload q)

let clear q =
  Array.fill q.heap 0 q.size (filler ());
  q.size <- 0
