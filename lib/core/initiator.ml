module Layout = Udma_mmu.Layout

type cpu = {
  load : vaddr:int -> int32;
  store : vaddr:int -> int32 -> unit;
  repeat_load : vaddr:int -> max:int -> int;
  compute : int -> unit;
  now : unit -> int;
}

type endpoint = Memory of int | Device of int

type config = {
  call_overhead_cycles : int;
  alignment_check_cycles : int;
  max_retries : int;
  poll_limit : int;
}

let default_config =
  {
    call_overhead_cycles = 180;
    alignment_check_cycles = 100;
    max_retries = 10_000;
    poll_limit = 10_000_000;
  }

type error =
  | Hard_error of Status.t
  | Retries_exhausted of Status.t
  | Poll_limit_exceeded
  | Protocol_violation of string

let pp_error ppf = function
  | Hard_error s -> Format.fprintf ppf "hard error %a" Status.pp s
  | Retries_exhausted s -> Format.fprintf ppf "retries exhausted, last %a" Status.pp s
  | Poll_limit_exceeded -> Format.pp_print_string ppf "poll limit exceeded"
  | Protocol_violation m -> Format.fprintf ppf "protocol violation: %s" m

type stats = {
  pieces : int;
  pairs : int;
  retries : int;
  polls : int;
  cycles : int;
}

(* Mutable accumulator threaded through one transfer. *)
type acc = {
  mutable a_pieces : int;
  mutable a_pairs : int;
  mutable a_retries : int;
  mutable a_polls : int;
}

let fresh_acc () = { a_pieces = 0; a_pairs = 0; a_retries = 0; a_polls = 0 }

let stats_of acc ~cycles =
  {
    pieces = acc.a_pieces;
    pairs = acc.a_pairs;
    retries = acc.a_retries;
    polls = acc.a_polls;
    cycles;
  }

let shift ep k =
  match ep with Memory a -> Memory (a + k) | Device a -> Device (a + k)

(* The user library computes PROXY on its own virtual addresses (§3). *)
let proxy_vaddr layout = function
  | Memory a -> Layout.proxy_of layout a
  | Device a -> a

(* Re-issue the LOAD at [probe_addr] while [waiting] holds of the word
   it returns. After a probe that says "keep waiting", [repeat_load]
   accounts at once the probes that would provably return the same
   flags (the budget still caps them). *)
let poll cpu config acc probe_addr ~waiting =
  let rec loop n =
    if n >= config.poll_limit then Error Poll_limit_exceeded
    else begin
      acc.a_polls <- acc.a_polls + 1;
      let w = cpu.load ~vaddr:probe_addr in
      if Status.(has Started w) then
        Error (Protocol_violation "completion probe initiated a transfer")
      else if waiting w then begin
        let k =
          cpu.repeat_load ~vaddr:probe_addr ~max:(config.poll_limit - n - 1)
        in
        acc.a_polls <- acc.a_polls + k;
        loop (n + 1 + k)
      end
      else Ok ()
    end
  in
  loop 0

(* Probe the engine until the transferring condition clears, i.e. the
   machine reports Idle. Used between back-to-back pieces in basic
   mode. *)
let poll_until_idle cpu config acc probe_addr =
  poll cpu config acc probe_addr ~waiting:(fun w ->
      not Status.(has Invalid w && not (has Transferring w)))

(* Wait for a piece to finish: repeat the initiating LOAD; the transfer
   has completed once the match flag is clear (§5). *)
let wait_match_clear cpu config acc probe_addr =
  poll cpu config acc probe_addr ~waiting:(fun w -> Status.(has Matches w))

(* One piece: execute the two-reference sequence until it is accepted.
   [queued] selects the retry behaviour for a full hardware queue.
   Returns the accepted status (whose REMAINING-BYTES is the clamped
   piece size) together with the src proxy address used. *)
let initiate_piece cpu layout config acc ~queued ~src ~dst ~count =
  let src_p = proxy_vaddr layout src and dst_p = proxy_vaddr layout dst in
  let rec attempt retries =
    acc.a_pairs <- acc.a_pairs + 1;
    cpu.store ~vaddr:dst_p (Int32.of_int count);
    retry_load retries
  and retry_load retries =
    let st = Status.decode (cpu.load ~vaddr:src_p) in
    if Status.ok st then Ok (st, src_p)
    else if Status.hard_error st then Error (Hard_error st)
    else if retries >= config.max_retries then Error (Retries_exhausted st)
    else begin
      acc.a_retries <- acc.a_retries + 1;
      if st.Status.queue_full && queued then
        (* §7: the DESTINATION stays latched; retry the LOAD alone *)
        retry_load (retries + 1)
      else if st.Status.transferring && not st.Status.invalid then begin
        (* basic engine busy: poll until it goes idle, then re-pair *)
        match poll_until_idle cpu config acc src_p with
        | Ok () -> attempt (retries + 1)
        | Error _ as e -> e |> Result.map (fun _ -> assert false)
      end
      else
        (* invalidated (I1 context switch) or transient: re-pair *)
        attempt (retries + 1)
    end
  in
  attempt 0

(* ---------- shaped (strided / scatter-gather) initiation ---------- *)

type shape_spec =
  | Strided_shape of { stride : int; chunk : int }
  | Gather_shape of (endpoint * int) list

let shape_stores layout ~dst_p = function
  | Strided_shape { stride; chunk } ->
      [ (dst_p, State_machine.encode_strided_word ~stride ~chunk) ]
  | Gather_shape elems ->
      List.map
        (fun (ep, len) ->
          (proxy_vaddr layout ep, State_machine.encode_sg_word ~len))
        elems

(* A shaped piece runs the protected sequence with tagged shape words
   between the count STORE and the initiating LOAD. Any transient
   failure re-runs the whole sequence: a plain re-store of the count
   resets the latched shape to flat, so the shape words must travel
   with it. The exception is a full queue, where the DESTINATION —
   shape included — stays latched and the LOAD alone is retried,
   exactly as for flat pieces. *)
let initiate_shaped cpu layout config acc ~queued ~src ~dst ~count ~shape =
  let src_p = proxy_vaddr layout src and dst_p = proxy_vaddr layout dst in
  let stores = shape_stores layout ~dst_p shape in
  let rec attempt retries =
    acc.a_pairs <- acc.a_pairs + 1;
    cpu.store ~vaddr:dst_p (Int32.of_int count);
    List.iter
      (fun (vaddr, word) -> cpu.store ~vaddr (Int32.of_int word))
      stores;
    retry_load retries
  and retry_load retries =
    let st = Status.decode (cpu.load ~vaddr:src_p) in
    if Status.ok st then Ok (st, src_p)
    else if Status.hard_error st then Error (Hard_error st)
    else if retries >= config.max_retries then Error (Retries_exhausted st)
    else begin
      acc.a_retries <- acc.a_retries + 1;
      if st.Status.queue_full && queued then retry_load (retries + 1)
      else if st.Status.transferring && not st.Status.invalid then begin
        match poll_until_idle cpu config acc src_p with
        | Ok () -> attempt (retries + 1)
        | Error _ as e -> e |> Result.map (fun _ -> assert false)
      end
      else attempt (retries + 1)
    end
  in
  attempt 0

(* §8's optimistic split: pass the full remaining count and let the
   hardware clamp at the page boundary. *)
let piece_count remaining = Int.min remaining Status.max_remaining

(* Issue all pieces of one (src, dst, nbytes) transfer. When
   [wait_each] is set (basic hardware) each piece is drained before the
   next pair; otherwise pieces are pipelined through the queue.
   Returns the src proxy address of the last piece for the caller's
   final completion wait. *)
let issue cpu layout config acc ~queued ~wait_each ~src ~dst ~nbytes =
  let rec loop ~first ~src ~dst ~remaining ~last_probe =
    if remaining <= 0 then Ok last_probe
    else begin
      (* §8: the alignment / page-boundary check, charged per piece.
         For pieces after the first in basic mode this work overlaps
         the previous piece's transfer. *)
      cpu.compute config.alignment_check_cycles;
      let count = piece_count remaining in
      match initiate_piece cpu layout config acc ~queued ~src ~dst ~count with
      | Error _ as e -> e
      | Ok (st, src_p) -> (
          acc.a_pieces <- acc.a_pieces + 1;
          (* advance by the count the status word reports *)
          let moved = Int.min st.Status.remaining_bytes remaining in
          if moved <= 0 then
            Error (Protocol_violation "hardware reported an empty transfer")
          else begin
            ignore first;
            let continue () =
              loop ~first:false ~src:(shift src moved) ~dst:(shift dst moved)
                ~remaining:(remaining - moved) ~last_probe:(Some src_p)
            in
            if wait_each && remaining - moved > 0 then
              (* the basic engine ignores STOREs while transferring, so
                 drain this piece before pairing again *)
              match wait_match_clear cpu config acc src_p with
              | Ok () -> continue ()
              | Error _ as e -> e
            else continue ()
          end)
    end
  in
  loop ~first:true ~src ~dst ~remaining:nbytes ~last_probe:None

let finish cpu config acc start = function
  | Error e -> Error e
  | Ok None -> Ok (stats_of acc ~cycles:(cpu.now () - start))
  | Ok (Some probe) -> (
      match wait_match_clear cpu config acc probe with
      | Ok () -> Ok (stats_of acc ~cycles:(cpu.now () - start))
      | Error e -> Error e)

let check_args src dst nbytes =
  if nbytes < 0 then invalid_arg "Initiator: negative nbytes";
  match (src, dst) with
  | Memory _, Memory _ ->
      invalid_arg "Initiator: memory-to-memory is not supported by basic UDMA"
  | Device _, Device _ ->
      invalid_arg "Initiator: device-to-device is not supported by basic UDMA"
  | Memory _, Device _ | Device _, Memory _ -> ()

let check_shape_args ~src ~dst ~nbytes shape =
  check_args src dst nbytes;
  if nbytes <= 0 then invalid_arg "Initiator: shaped transfer needs nbytes > 0";
  match shape with
  | Strided_shape { stride; chunk } ->
      if stride <= 0 || chunk <= 0 then
        invalid_arg "Initiator: stride and chunk must be positive"
  | Gather_shape elems ->
      List.iter
        (fun (ep, len) ->
          if len <= 0 then
            invalid_arg "Initiator: gather element length must be positive";
          match (dst, ep) with
          | Memory _, Memory _ | Device _, Device _ -> ()
          | _ ->
              invalid_arg
                "Initiator: gather elements must share the destination's space")
        elems

let transfer cpu ~layout ?(config = default_config) ~src ~dst ~nbytes () =
  check_args src dst nbytes;
  let acc = fresh_acc () in
  let start = cpu.now () in
  if nbytes = 0 then Ok (stats_of acc ~cycles:0)
  else begin
    cpu.compute config.call_overhead_cycles;
    issue cpu layout config acc ~queued:false ~wait_each:true ~src ~dst ~nbytes
    |> finish cpu config acc start
  end

let transfer_queued cpu ~layout ?(config = default_config) ~src ~dst ~nbytes ()
    =
  check_args src dst nbytes;
  let acc = fresh_acc () in
  let start = cpu.now () in
  if nbytes = 0 then Ok (stats_of acc ~cycles:0)
  else begin
    cpu.compute config.call_overhead_cycles;
    issue cpu layout config acc ~queued:true ~wait_each:false ~src ~dst ~nbytes
    |> finish cpu config acc start
  end

let transfer_gather cpu ~layout ?(config = default_config) ~pieces () =
  List.iter (fun (src, dst, nbytes) -> check_args src dst nbytes) pieces;
  let acc = fresh_acc () in
  let start = cpu.now () in
  cpu.compute config.call_overhead_cycles;
  let rec go last = function
    | [] -> Ok last
    | (src, dst, nbytes) :: rest -> (
        if nbytes = 0 then go last rest
        else
          match
            issue cpu layout config acc ~queued:true ~wait_each:false ~src ~dst
              ~nbytes
          with
          | Ok probe -> go (if probe = None then last else probe) rest
          | Error _ as e -> e)
  in
  go None pieces |> finish cpu config acc start

let start_shaped cpu ~layout ?(config = default_config) ?(queued = false) ~src
    ~dst ~shape ~nbytes () =
  check_shape_args ~src ~dst ~nbytes shape;
  let acc = fresh_acc () in
  cpu.compute config.alignment_check_cycles;
  match
    initiate_shaped cpu layout config acc ~queued ~src ~dst ~count:nbytes
      ~shape
  with
  | Error _ as e -> e
  | Ok (st, probe) -> Ok (st, probe)

let await cpu ?(config = default_config) ~probe () =
  let acc = fresh_acc () in
  match wait_match_clear cpu config acc probe with
  | Ok () -> Ok acc.a_polls
  | Error _ as e -> e

let transfer_shaped cpu ~layout ?(config = default_config) ?(queued = false)
    ~src ~dst ~shape ~nbytes () =
  check_shape_args ~src ~dst ~nbytes shape;
  let acc = fresh_acc () in
  let start = cpu.now () in
  cpu.compute config.call_overhead_cycles;
  cpu.compute config.alignment_check_cycles;
  match
    initiate_shaped cpu layout config acc ~queued ~src ~dst ~count:nbytes
      ~shape
  with
  | Error _ as e -> e
  | Ok (_, probe) ->
      acc.a_pieces <- acc.a_pieces + 1;
      finish cpu config acc start (Ok (Some probe))

let initiation_cycles cpu ~layout ~config ~src ~dst ~nbytes =
  check_args src dst nbytes;
  let acc = fresh_acc () in
  let start = cpu.now () in
  cpu.compute config.alignment_check_cycles;
  let count = piece_count nbytes in
  match initiate_piece cpu layout config acc ~queued:false ~src ~dst ~count with
  | Ok _ -> Ok (cpu.now () - start)
  | Error e -> Error e
