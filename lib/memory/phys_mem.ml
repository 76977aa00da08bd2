(* A per-frame table. Every slot starts on [zero], one page of zeros
   that nothing writes; a frame gets its own page only when a non-zero
   byte is first stored into it, and [fill_frame ~frame 0] puts it back
   on [zero]. Reads never allocate a page, so an untouched frame costs
   one array slot. *)
type t = {
  pages : Bytes.t array;
  zero : Bytes.t;
  frames : int;
  page_size : int;
  shift : int;  (* log2 page_size *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create ~frames ~page_size =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  if not (is_power_of_two page_size) then
    invalid_arg "Phys_mem.create: page_size must be a positive power of two";
  let zero = Bytes.make page_size '\000' in
  { pages = Array.make frames zero; zero; frames; page_size; shift = log2 page_size }

let frames t = t.frames
let page_size t = t.page_size
let size t = t.frames * t.page_size

let materialized t =
  Array.fold_left (fun n p -> if p == t.zero then n else n + 1) 0 t.pages

let check t addr len what =
  if addr < 0 || len < 0 || addr + len > size t then
    invalid_arg
      (Printf.sprintf "Phys_mem.%s: [%#x,+%d) out of range [0,%#x)" what addr
         len (size t))

(* The page frame [f] may be written through, given its own page first. *)
let own t f =
  let p = t.pages.(f) in
  if p != t.zero then p
  else begin
    let p = Bytes.make t.page_size '\000' in
    t.pages.(f) <- p;
    p
  end

let all_zero b off len =
  let rec go i = i >= off + len || (Bytes.unsafe_get b i = '\000' && go (i + 1)) in
  go off

(* Store [b.[boff .. boff + len)] at offset [off] of frame [f], which
   stays on [zero] when those bytes are all zero. *)
let store t f off b boff len =
  let p = t.pages.(f) in
  if p != t.zero then Bytes.blit b boff p off len
  else if b != t.zero && not (all_zero b boff len) then Bytes.blit b boff (own t f) off len

let read_byte t addr =
  check t addr 1 "read_byte";
  Char.code (Bytes.unsafe_get t.pages.(addr lsr t.shift) (addr land (t.page_size - 1)))

let write_byte t addr v =
  check t addr 1 "write_byte";
  let f = addr lsr t.shift in
  if v land 0xff <> 0 || t.pages.(f) != t.zero then
    Bytes.unsafe_set (own t f) (addr land (t.page_size - 1)) (Char.unsafe_chr (v land 0xff))

let check_aligned addr what =
  if addr land 3 <> 0 then
    invalid_arg (Printf.sprintf "Phys_mem.%s: unaligned address %#x" what addr)

let read_into t ~addr out =
  let len = Bytes.length out in
  check t addr len "read_into";
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land (t.page_size - 1) in
    let n = Int.min (len - !i) (t.page_size - off) in
    Bytes.blit t.pages.(a lsr t.shift) off out !i n;
    i := !i + n
  done

let read_bytes t ~addr ~len =
  check t addr len "read_bytes";
  let out = Bytes.create len in
  read_into t ~addr out;
  out

let write_bytes t ~addr b =
  let len = Bytes.length b in
  check t addr len "write_bytes";
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land (t.page_size - 1) in
    let n = Int.min (len - !i) (t.page_size - off) in
    store t (a lsr t.shift) off b !i n;
    i := !i + n
  done

(* A word inside one frame is read and written in place; with pages
   smaller than a word it spans frames and goes byte by byte. *)
let read_word t addr =
  check t addr 4 "read_word";
  check_aligned addr "read_word";
  if t.page_size >= 4 then
    Bytes.get_int32_le t.pages.(addr lsr t.shift) (addr land (t.page_size - 1))
  else Bytes.get_int32_le (read_bytes t ~addr ~len:4) 0

let write_word t addr v =
  check t addr 4 "write_word";
  check_aligned addr "write_word";
  if t.page_size >= 4 then begin
    let f = addr lsr t.shift in
    if v <> 0l || t.pages.(f) != t.zero then
      Bytes.set_int32_le (own t f) (addr land (t.page_size - 1)) v
  end
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 v;
    write_bytes t ~addr b
  end

(* memmove: when the destination starts inside the source, the pieces
   go from the top down so none is read after it is overwritten. Each
   piece lies inside one source and one destination frame. *)
let blit t ~src ~dst ~len =
  check t src len "blit";
  check t dst len "blit";
  let mask = t.page_size - 1 in
  let copy i n =
    let s = src + i and d = dst + i in
    store t (d lsr t.shift) (d land mask) t.pages.(s lsr t.shift) (s land mask) n
  in
  if dst <= src || dst >= src + len then begin
    let i = ref 0 in
    while !i < len do
      let room =
        t.page_size - Int.max ((src + !i) land mask) ((dst + !i) land mask)
      in
      let n = Int.min (len - !i) room in
      copy !i n;
      i := !i + n
    done
  end
  else begin
    let i = ref len in
    while !i > 0 do
      let room =
        1 + Int.min ((src + !i - 1) land mask) ((dst + !i - 1) land mask)
      in
      let n = Int.min !i room in
      i := !i - n;
      copy !i n
    done
  end

let frame_base t f =
  if f < 0 || f >= t.frames then
    invalid_arg (Printf.sprintf "Phys_mem.frame_base: frame %d" f);
  f * t.page_size

let frame_of_addr t addr =
  check t addr 1 "frame_of_addr";
  addr / t.page_size

let fill_frame t ~frame v =
  let (_ : int) = frame_base t frame in
  if v land 0xff = 0 then t.pages.(frame) <- t.zero
  else Bytes.fill (own t frame) 0 t.page_size (Char.chr (v land 0xff))
