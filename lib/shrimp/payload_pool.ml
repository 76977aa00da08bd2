let min_bytes = 2048

(* The free buffers of one length, as a stack. *)
type shelf = { mutable bufs : bytes array; mutable n : int }

type t = (int, shelf) Hashtbl.t

let create () : t = Hashtbl.create 4

let take (t : t) len =
  if len < min_bytes then Bytes.create len
  else
    match Hashtbl.find t len with
    | s when s.n > 0 ->
        s.n <- s.n - 1;
        let b = s.bufs.(s.n) in
        s.bufs.(s.n) <- Bytes.empty;
        b
    | _ -> Bytes.create len
    | exception Not_found -> Bytes.create len

let rec holds s b i = i < s.n && (s.bufs.(i) == b || holds s b (i + 1))

let give (t : t) b =
  let len = Bytes.length b in
  if len >= min_bytes then begin
    let s =
      match Hashtbl.find_opt t len with
      | Some s -> s
      | None ->
          let s = { bufs = [||]; n = 0 } in
          Hashtbl.add t len s;
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

let held (t : t) = Hashtbl.fold (fun _ s acc -> acc + s.n) t 0
