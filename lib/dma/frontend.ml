(* Frontend: validate a transfer descriptor, element by element. *)

open Descriptor

let side_ok ~mem_size ~as_src side addr len =
  match side with
  | Mem _ -> addr >= 0 && addr + len <= mem_size
  | Dev (p, _) ->
      if as_src then p.Device.readable ~addr else p.Device.writable ~addr

let check_element ~mem_size d i =
  let len = length d i in
  if len <= 0 then Error Bad_size
  else
    match (src_side d i, dst_side d i) with
    | Mem _, Mem _ | Dev _, Dev _ -> Error Unsupported_pair
    | src, dst ->
        if not (side_ok ~mem_size ~as_src:true src (src_addr d i) len) then
          match src with
          | Mem _ -> Error Bad_size
          | Dev _ -> Error Device_refused
        else if not (side_ok ~mem_size ~as_src:false dst (dst_addr d i) len) then
          match dst with
          | Mem _ -> Error Bad_size
          | Dev _ -> Error Device_refused
        else Ok ()

let validate ~mem_size d =
  let n = count d in
  let rec from i =
    if i = n then Ok ()
    else
      match check_element ~mem_size d i with
      | Ok () -> from (i + 1)
      | Error _ as err -> err
  in
  if n = 0 then Error Bad_size else from 0

let clamp_to_page ~page_size ~addr len =
  Int.min len (page_size - (addr mod page_size))
