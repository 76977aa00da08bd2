(* Frontend: validate a transfer's element list. *)

open Descriptor

let endpoint_ok ~mem_size ~as_src len = function
  | Mem a -> a >= 0 && a + len <= mem_size
  | Dev (p, a) ->
      if as_src then p.Device.readable ~addr:a else p.Device.writable ~addr:a

let check_element ~mem_size e =
  if e.len <= 0 then Error Bad_size
  else
    match (e.src, e.dst) with
    | Mem _, Mem _ | Dev _, Dev _ -> Error Unsupported_pair
    | (Mem _ | Dev _), (Mem _ | Dev _) ->
        if not (endpoint_ok ~mem_size ~as_src:true e.len e.src) then
          match e.src with
          | Mem _ -> Error Bad_size
          | Dev _ -> Error Device_refused
        else if not (endpoint_ok ~mem_size ~as_src:false e.len e.dst) then
          match e.dst with
          | Mem _ -> Error Bad_size
          | Dev _ -> Error Device_refused
        else Ok ()

let rec check_all ~mem_size = function
  | [] -> Ok ()
  | e :: rest -> (
      match check_element ~mem_size e with
      | Ok () -> check_all ~mem_size rest
      | Error _ as err -> err)

let validate ~mem_size = function
  | [] -> Error Bad_size
  | elems -> check_all ~mem_size elems

let clamp_to_page ~page_size ~addr len =
  Int.min len (page_size - (addr mod page_size))
