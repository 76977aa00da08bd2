type t = {
  started : bool;
  transferring : bool;
  invalid : bool;
  matches : bool;
  wrong_space : bool;
  queue_full : bool;
  device_error : int;
  remaining_bytes : int;
}

let make ?(started = false) ?(transferring = false) ?(invalid = false)
    ?(matches = false) ?(wrong_space = false) ?(queue_full = false)
    ?(device_error = 0) ?(remaining_bytes = 0) () =
  if device_error < 0 || device_error > 0xf then
    invalid_arg "Status.make: device_error must fit 4 bits";
  if remaining_bytes < 0 then
    invalid_arg "Status.make: negative remaining_bytes";
  {
    started;
    transferring;
    invalid;
    matches;
    wrong_space;
    queue_full;
    device_error;
    remaining_bytes;
  }

let idle = make ~invalid:true ()

let max_remaining = (1 lsl 21) - 1

let bit b pos = if b then 1 lsl pos else 0

let pack ~started ~transferring ~invalid ~matches ~wrong_space ~queue_full
    ~device_error ~remaining_bytes =
  let remaining = Int.min remaining_bytes max_remaining in
  Int32.of_int
    (bit (not started) 0
    lor bit transferring 1
    lor bit invalid 2
    lor bit matches 3
    lor bit wrong_space 4
    lor bit queue_full 5
    lor ((device_error land 0xf) lsl 6)
    lor (remaining lsl 10))

let encode t =
  pack ~started:t.started ~transferring:t.transferring ~invalid:t.invalid
    ~matches:t.matches ~wrong_space:t.wrong_space ~queue_full:t.queue_full
    ~device_error:t.device_error ~remaining_bytes:t.remaining_bytes

let probe ~transferring ~invalid ~matches ~remaining_bytes =
  if remaining_bytes < 0 then
    invalid_arg "Status.probe: negative remaining_bytes";
  pack ~started:false ~transferring ~invalid ~matches ~wrong_space:false
    ~queue_full:false ~device_error:0 ~remaining_bytes

let field w shift mask = (w asr shift) land mask
let is_set w pos = field w pos 1 = 1

let decode w =
  let w = Int32.to_int w in
  {
    started = not (is_set w 0);
    transferring = is_set w 1;
    invalid = is_set w 2;
    matches = is_set w 3;
    wrong_space = is_set w 4;
    queue_full = is_set w 5;
    device_error = field w 6 0xf;
    remaining_bytes = field w 10 0x1fffff;
  }

type flag = Started | Transferring | Invalid | Matches

let has f w =
  let w = Int32.to_int w in
  match f with
  | Started -> not (is_set w 0)
  | Transferring -> is_set w 1
  | Invalid -> is_set w 2
  | Matches -> is_set w 3

let ok t = t.started && t.device_error = 0 && not t.wrong_space

let hard_error t = t.wrong_space || t.device_error <> 0

let pp ppf t =
  Format.fprintf ppf "{%s%s%s%s%s%s err=%d rem=%d}"
    (if t.started then "S" else "-")
    (if t.transferring then "T" else "-")
    (if t.invalid then "I" else "-")
    (if t.matches then "M" else "-")
    (if t.wrong_space then "W" else "-")
    (if t.queue_full then "Q" else "-")
    t.device_error t.remaining_bytes

let equal a b = a = b
