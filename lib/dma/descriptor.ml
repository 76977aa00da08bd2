(* Typed transfer elements: the DMA frontend's input language. *)

type endpoint = Mem of int | Dev of Device.port * int

type error = Busy | Bad_size | Unsupported_pair | Device_refused

let pp_error ppf = function
  | Busy -> Format.pp_print_string ppf "busy"
  | Bad_size -> Format.pp_print_string ppf "bad-size"
  | Unsupported_pair -> Format.pp_print_string ppf "unsupported-pair"
  | Device_refused -> Format.pp_print_string ppf "device-refused"

type element = { src : endpoint; dst : endpoint; len : int }
