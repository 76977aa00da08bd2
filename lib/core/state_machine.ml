type space = Mem_space | Dev_space

let pp_space ppf = function
  | Mem_space -> Format.pp_print_string ppf "mem"
  | Dev_space -> Format.pp_print_string ppf "dev"

type shape =
  | Flat
  | Strided of { stride : int; chunk : int }
  | Gather of { rev_elems : (int * int) list }

let pp_shape ppf = function
  | Flat -> Format.pp_print_string ppf "flat"
  | Strided { stride; chunk } ->
      Format.fprintf ppf "strided(%d,%d)" stride chunk
  | Gather { rev_elems } ->
      Format.fprintf ppf "sg[%d]" (List.length rev_elems)

type dest = { dest_proxy : int; dest_space : space; nbytes : int; shape : shape }

type state =
  | Idle
  | Dest_loaded of dest
  | Transferring of { src_proxy : int; src_space : space; dest : dest }

let pp_dest_shape ppf d =
  match d.shape with
  | Flat -> ()
  | s -> Format.fprintf ppf "+%a" pp_shape s

let pp_state ppf = function
  | Idle -> Format.pp_print_string ppf "Idle"
  | Dest_loaded d ->
      Format.fprintf ppf "DestLoaded(%a:%#x,%d%a)" pp_space d.dest_space
        d.dest_proxy d.nbytes pp_dest_shape d
  | Transferring { src_proxy; src_space; dest } ->
      Format.fprintf ppf "Transferring(%a:%#x -> %a:%#x,%d%a)" pp_space
        src_space src_proxy pp_space dest.dest_space dest.dest_proxy
        dest.nbytes pp_dest_shape dest

type event =
  | Store of { proxy : int; space : space; value : int }
  | Load of { proxy : int; space : space }
  | Done

type action =
  | No_action
  | Latch_dest
  | Latch_shape
  | Invalidated
  | Start of { src_proxy : int; src_space : space; dest : dest }
  | Bad_load
  | Status_probe
  | Completed

let pp_action ppf = function
  | No_action -> Format.pp_print_string ppf "no-action"
  | Latch_dest -> Format.pp_print_string ppf "latch-dest"
  | Latch_shape -> Format.pp_print_string ppf "latch-shape"
  | Invalidated -> Format.pp_print_string ppf "invalidated"
  | Start { src_proxy; src_space; dest } ->
      Format.fprintf ppf "start(%a:%#x -> %a:%#x,%d%a)" pp_space src_space
        src_proxy pp_space dest.dest_space dest.dest_proxy dest.nbytes
        pp_dest_shape dest
  | Bad_load -> Format.pp_print_string ppf "bad-load"
  | Status_probe -> Format.pp_print_string ppf "status-probe"
  | Completed -> Format.pp_print_string ppf "completed"

(* ---------- shape-word encoding ----------

   A STORE whose value has bit 30 set is a shape word, refining the
   DESTINATION/COUNT pair latched by the preceding plain store:

     bit 30        shape tag
     bit 29        1 = scatter-gather element, 0 = strided
     bits 28..14   strided: source stride in bytes (<= 32767)
     bits 13..0    strided: chunk bytes (<= 16383); sg: element length

   Shape words are positive 32-bit values, so they flow through the
   same proxy STORE path as counts; a plain positive store still
   latches (and resets the shape to [Flat]), a non-positive store is
   still an Inval. *)

let shape_tag_bit = 0x4000_0000
let shape_sg_bit = 0x2000_0000
let shape_field_mask = 0x3fff
let max_stride = 0x7fff
let max_shape_field = shape_field_mask

let is_shape_word value = value > 0 && value land shape_tag_bit <> 0

let encode_strided_word ~stride ~chunk =
  if stride < 0 || stride > max_stride then
    invalid_arg "State_machine.encode_strided_word: stride out of range";
  if chunk <= 0 || chunk > max_shape_field then
    invalid_arg "State_machine.encode_strided_word: chunk out of range";
  shape_tag_bit lor (stride lsl 14) lor chunk

let encode_sg_word ~len =
  if len <= 0 || len > max_shape_field then
    invalid_arg "State_machine.encode_sg_word: length out of range";
  shape_tag_bit lor shape_sg_bit lor len

let decode_shape_word value =
  if not (is_shape_word value) then None
  else if value land shape_sg_bit <> 0 then
    Some (`Sg (value land shape_field_mask))
  else
    Some
      (`Strided
        ((value lsr 14) land max_stride, value land shape_field_mask))

let step_shape_store dest ~proxy ~space ~value =
  match decode_shape_word value with
  | None -> assert false
  | Some (`Strided (stride, chunk)) ->
      (* A strided refinement re-references the latched destination:
         wrong proxy or space, a zero chunk, or mixing with an sg list
         is an Inval. *)
      if proxy <> dest.dest_proxy || space <> dest.dest_space || chunk <= 0
      then (Idle, Invalidated)
      else (
        match dest.shape with
        | Gather _ -> (Idle, Invalidated)
        | Flat | Strided _ ->
            (Dest_loaded { dest with shape = Strided { stride; chunk } },
             Latch_shape))
  | Some (`Sg len) ->
      (* Each sg word is its own destination reference: it names a new
         proxy address in the destination space and appends an element.
         Mixing with a strided refinement is an Inval. *)
      if space <> dest.dest_space || len <= 0 then (Idle, Invalidated)
      else (
        match dest.shape with
        | Strided _ -> (Idle, Invalidated)
        | Flat ->
            (Dest_loaded
               { dest with shape = Gather { rev_elems = [ (proxy, len) ] } },
             Latch_shape)
        | Gather { rev_elems } ->
            (Dest_loaded
               { dest with
                 shape = Gather { rev_elems = (proxy, len) :: rev_elems } },
             Latch_shape))

let step state event =
  match (state, event) with
  (* --- Shape words: refinements of a latched destination --- *)
  | Idle, Store { value; _ } when is_shape_word value ->
      (* no destination to refine *)
      (Idle, Invalidated)
  | Dest_loaded dest, Store { proxy; space; value } when is_shape_word value
    ->
      step_shape_store dest ~proxy ~space ~value
  (* --- Store events: positive value latches, non-positive is Inval --- *)
  | Idle, Store { proxy; space; value } when value > 0 ->
      (Dest_loaded
         { dest_proxy = proxy; dest_space = space; nbytes = value;
           shape = Flat },
       Latch_dest)
  | Idle, Store _ -> (Idle, Invalidated)
  | Dest_loaded _, Store { proxy; space; value } when value > 0 ->
      (* A Store in DestLoaded overwrites DESTINATION and COUNT (§5),
         and resets any latched shape. *)
      (Dest_loaded
         { dest_proxy = proxy; dest_space = space; nbytes = value;
           shape = Flat },
       Latch_dest)
  | Dest_loaded _, Store _ -> (Idle, Invalidated)
  | (Transferring _ as s), Store _ ->
      (* No transition depicted: a started transfer is never disturbed. *)
      (s, No_action)
  (* --- Load events --- *)
  | Idle, Load _ -> (Idle, Status_probe)
  | Dest_loaded dest, Load { proxy; space } ->
      if space = dest.dest_space then
        (* BadLoad: memory-to-memory or device-to-device request. *)
        (Idle, Bad_load)
      else
        (Transferring { src_proxy = proxy; src_space = space; dest },
         Start { src_proxy = proxy; src_space = space; dest })
  | (Transferring _ as s), Load _ -> (s, Status_probe)
  (* --- Done from the DMA engine --- *)
  | Transferring _, Done -> (Idle, Completed)
  | (Idle as s), Done | (Dest_loaded _ as s), Done -> (s, No_action)

let load_is_probe = function
  | Idle | Transferring _ -> true
  | Dest_loaded _ -> false
