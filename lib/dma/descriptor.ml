(* Transfer descriptors: the DMA frontend's input language, read as a
   cursor over its elements. *)

type endpoint = Mem of int | Dev of Device.port * int

type error = Busy | Bad_size | Unsupported_pair | Device_refused

let pp_error ppf = function
  | Busy -> Format.pp_print_string ppf "busy"
  | Bad_size -> Format.pp_print_string ppf "bad-size"
  | Unsupported_pair -> Format.pp_print_string ppf "unsupported-pair"
  | Device_refused -> Format.pp_print_string ppf "device-refused"

type element = { src : endpoint; dst : endpoint; len : int }

type t =
  | Affine of {
      src : endpoint;
      dst : endpoint;
      count : int;
      src_stride : int;
      dst_stride : int;
      chunk : int;
      last : int;
    }
  | Elements of { elems : element array; before : int array }

let of_list elems =
  let elems = Array.of_list elems in
  let n = Array.length elems in
  let before = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    before.(i + 1) <- before.(i) + elems.(i).len
  done;
  Elements { elems; before }

let[@inline] count = function
  | Affine a -> a.count
  | Elements e -> Array.length e.elems

let[@inline] length d i =
  match d with
  | Affine a -> if i = a.count - 1 then a.last else a.chunk
  | Elements e -> e.elems.(i).len

let[@inline] addr_of = function Mem a | Dev (_, a) -> a

let[@inline] src_addr d i =
  match d with
  | Affine a -> addr_of a.src + (i * a.src_stride)
  | Elements e -> addr_of e.elems.(i).src

let[@inline] dst_addr d i =
  match d with
  | Affine a -> addr_of a.dst + (i * a.dst_stride)
  | Elements e -> addr_of e.elems.(i).dst

let[@inline] src_side d i = match d with Affine a -> a.src | Elements e -> e.elems.(i).src
let[@inline] dst_side d i = match d with Affine a -> a.dst | Elements e -> e.elems.(i).dst

let[@inline] bytes_before d i =
  match d with Affine a -> i * a.chunk | Elements e -> e.before.(i)

let total_bytes d =
  match d with
  | Affine a -> ((a.count - 1) * a.chunk) + a.last
  | Elements e -> e.before.(Array.length e.elems)

let at side addr = match side with Mem _ -> Mem addr | Dev (p, _) -> Dev (p, addr)

let elements d =
  List.init (count d) (fun i ->
      { src = at (src_side d i) (src_addr d i); dst = at (dst_side d i) (dst_addr d i);
        len = length d i })
