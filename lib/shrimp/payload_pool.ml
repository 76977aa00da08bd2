let min_bytes = 2048

(* The free buffers of one length, as a stack. A pool holds one or two
   lengths, so a list compared by length beats hashing the length. *)
type shelf = { len : int; mutable bufs : bytes array; mutable n : int }
type t = { mutable shelves : shelf list }

let create () = { shelves = [] }

let rec shelf len = function
  | s :: rest -> if s.len = len then s else shelf len rest
  | [] -> raise Not_found

let take t len =
  if len < min_bytes then Bytes.create len
  else
    match shelf len t.shelves with
    | s when s.n > 0 ->
        s.n <- s.n - 1;
        let b = s.bufs.(s.n) in
        s.bufs.(s.n) <- Bytes.empty;
        b
    | _ -> Bytes.create len
    | exception Not_found -> Bytes.create len

let rec holds s b i = i < s.n && (s.bufs.(i) == b || holds s b (i + 1))

let give t b =
  let len = Bytes.length b in
  if len >= min_bytes then begin
    let s =
      match shelf len t.shelves with
      | s -> s
      | exception Not_found ->
          let s = { len; bufs = [||]; n = 0 } in
          t.shelves <- s :: t.shelves;
          s
    in
    if not (holds s b 0) then begin
      if s.n = Array.length s.bufs then begin
        let grown = Array.make (Int.max 4 (2 * s.n)) Bytes.empty in
        Array.blit s.bufs 0 grown 0 s.n;
        s.bufs <- grown
      end;
      s.bufs.(s.n) <- b;
      s.n <- s.n + 1
    end
  end

let held t = List.fold_left (fun acc s -> acc + s.n) 0 t.shelves
