(* Heap position [i] is the four ints [heap.(4i .. 4i + 3)] =
   (time, key, seq, slot); [heap] positions [0 .. size - 1] form a
   binary min-heap under [before]. A sift copies ints, so it never runs
   the write barrier. [slot] indexes [payloads] and [tags]; the slots
   no entry holds are [free.(0 .. cap - size - 1)], a stack, where
   [cap = Array.length payloads]. Every free slot's payload is
   [filler ()], so the queue never keeps a popped or cleared payload
   (and the closure and everything it captures) reachable. *)
type 'a t = {
  mutable heap : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable payloads : 'a array;
  mutable tags : int array;
  mutable free : int array;
}

(* The value every free payload slot holds: [()] cast to ['a]. That is
   sound only because a free slot is never read at type ['a]. *)
let filler () : 'a = Obj.magic ()

let initial_capacity = 64

let create () =
  { heap = [||]; size = 0; next_seq = 0; payloads = [||]; tags = [||];
    free = [||] }

let is_empty q = q.size = 0

let length q = q.size

(* Entry ordering: earlier time first, then the caller-supplied key,
   then FIFO among equal (time, key). Sequence numbers are unique, so
   this is a total order and the pop order does not depend on the heap's
   shape. *)
let[@inline] before (t : int) (k : int) (s : int) t' k' s' =
  t < t' || (t = t' && (k < k' || (k = k' && s < s')))

(* Grow only when full, so no slot is free: the new slots
   [cap .. cap' - 1] become the whole free stack. *)
let grow q =
  let cap = Array.length q.payloads in
  let cap' = Int.max initial_capacity (cap * 2) in
  let heap = Array.make (4 * cap') 0 in
  Array.blit q.heap 0 heap 0 (4 * q.size);
  let payloads = Array.make cap' (filler ()) in
  Array.blit q.payloads 0 payloads 0 cap;
  let tags = Array.make cap' 0 in
  Array.blit q.tags 0 tags 0 cap;
  q.heap <- heap;
  q.payloads <- payloads;
  q.tags <- tags;
  q.free <- Array.init cap' (fun j -> cap + j)

(* Every heap index below is under [4 * size], inside [heap], so the
   sifts skip the bounds checks. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let[@inline] write h i time key seq slot =
  let b = 4 * i in
  h.!(b) <- time;
  h.!(b + 1) <- key;
  h.!(b + 2) <- seq;
  h.!(b + 3) <- slot

(* [move h ~src ~dst] copies heap position [src] to [dst]. *)
let[@inline] move h ~src ~dst =
  let s = 4 * src and d = 4 * dst in
  h.!(d) <- h.!(s);
  h.!(d + 1) <- h.!(s + 1);
  h.!(d + 2) <- h.!(s + 2);
  h.!(d + 3) <- h.!(s + 3)

(* [sift_up] moves a hole rather than swapping: each level copies one
   position into the hole, and the entry is written once where the
   hole stops. *)
let rec sift_up h i time key seq slot =
  if i = 0 then write h 0 time key seq slot
  else
    let parent = (i - 1) / 2 in
    let b = 4 * parent in
    if before time key seq h.!(b) h.!(b + 1) h.!(b + 2) then begin
      move h ~src:parent ~dst:i;
      sift_up h parent time key seq slot
    end
    else write h i time key seq slot

(* A pop moves the root's hole down to a leaf along the earlier child,
   one comparison per level, and returns the leaf; the heap's last
   entry then sifts up from there. That entry is a late one, so it
   rarely climbs far. Which child is earlier is a coin flip the branch
   predictor loses about half the time, level after level, so when the
   two times differ the pick is arithmetic ([setl], no branch); only
   equal times take the full [before] compare. *)
let rec hole_down h n i =
  let left = (2 * i) + 1 in
  if left >= n then i
  else
    let right = left + 1 in
    let child =
      let r = 4 * right and l = 4 * left in
      if right >= n then left
      else
        let tr = h.!(r) and tl = h.!(l) in
        if tr <> tl then left + Bool.to_int (tr < tl)
        else if before tr h.!(r + 1) h.!(r + 2) tl h.!(l + 1) h.!(l + 2) then right
        else left
    in
    move h ~src:child ~dst:i;
    hole_down h n child

let[@inline] insert q ~time ~key ~seq ~tag payload =
  if q.size = Array.length q.payloads then grow q;
  let i = q.size in
  let slot = q.free.(Array.length q.payloads - i - 1) in
  q.size <- i + 1;
  q.payloads.(slot) <- payload;
  q.tags.(slot) <- tag;
  sift_up q.heap i time key seq slot

let reserve q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let add q ~time ~key ~tag payload =
  if time < 0 then invalid_arg "Eventq.push: negative time";
  insert q ~time ~key ~seq:(reserve q) ~tag payload

let push q ~time ?(key = 0) ?(tag = 0) payload = add q ~time ~key ~tag payload

let push_reserved q ~time ~seq ~tag payload =
  if time < 0 then invalid_arg "Eventq.push_reserved: negative time";
  if seq < 0 || seq >= q.next_seq then
    invalid_arg "Eventq.push_reserved: sequence number not reserved";
  insert q ~time ~key:0 ~seq ~tag payload

let[@inline] min_time q = if q.size = 0 then max_int else q.heap.(0)

let[@inline] min_seq q =
  if q.size = 0 then invalid_arg "Eventq.min_seq: empty queue";
  q.heap.(2)

let next_seq q = q.next_seq

let[@inline] min_tag q =
  if q.size = 0 then invalid_arg "Eventq.min_tag: empty queue";
  q.tags.(q.heap.(3))

let pop_payload q =
  if q.size = 0 then invalid_arg "Eventq.pop_payload: empty queue";
  let h = q.heap in
  let slot = h.(3) in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let b = 4 * n in
    let time = h.(b) and key = h.(b + 1) and seq = h.(b + 2) in
    let last_slot = h.(b + 3) in
    sift_up h (hole_down h n 0) time key seq last_slot
  end;
  let payload = q.payloads.(slot) in
  q.payloads.(slot) <- filler ();
  q.free.(Array.length q.payloads - n - 1) <- slot;
  payload

let peek_time q = if q.size = 0 then None else Some q.heap.(0)

let pop q =
  if q.size = 0 then None
  else
    let time = q.heap.(0) in
    Some (time, pop_payload q)

let clear q =
  Array.fill q.payloads 0 (Array.length q.payloads) (filler ());
  for j = 0 to Array.length q.free - 1 do
    q.free.(j) <- j
  done;
  q.size <- 0
