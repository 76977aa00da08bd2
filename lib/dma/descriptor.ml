(* Typed transfer descriptors: the DMA frontend's input language. *)

type endpoint = Mem of int | Dev of Device.port * int

type error = Busy | Bad_size | Unsupported_pair | Device_refused

let pp_error ppf = function
  | Busy -> Format.pp_print_string ppf "busy"
  | Bad_size -> Format.pp_print_string ppf "bad-size"
  | Unsupported_pair -> Format.pp_print_string ppf "unsupported-pair"
  | Device_refused -> Format.pp_print_string ppf "device-refused"

type element = { src : endpoint; dst : endpoint; len : int }

type t =
  | Contiguous of { src : endpoint; dst : endpoint; nbytes : int }
  | Strided of {
      src : endpoint;
      dst : endpoint;
      stride : int;
      chunk : int;
      reps : int;
    }
  | Scatter_gather of element list

let advance ep delta =
  match ep with Mem a -> Mem (a + delta) | Dev (p, a) -> Dev (p, a + delta)

let elements = function
  | Contiguous { src; dst; nbytes } -> [ { src; dst; len = nbytes } ]
  | Strided { src; dst; stride; chunk; reps } ->
      List.init (Int.max reps 0) (fun i ->
          {
            src = advance src (i * stride);
            dst = advance dst (i * chunk);
            len = chunk;
          })
  | Scatter_gather es -> es

let total_bytes d = List.fold_left (fun acc e -> acc + e.len) 0 (elements d)
