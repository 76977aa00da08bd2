module Engine = Udma_sim.Engine
module Trace = Udma_sim.Trace
module Event = Udma_obs.Event
module Metrics = Udma_obs.Metrics
module Layout = Udma_mmu.Layout
module Bus = Udma_dma.Bus
module Device = Udma_dma.Device
module Dma_engine = Udma_dma.Dma_engine
module Descriptor = Udma_dma.Descriptor
module Frontend = Udma_dma.Frontend
module Sm = State_machine

type mode = Basic | Queued of { depth : int }

type priority = User | System

type binding = {
  base_page : int;
  pages : int;
  port : Device.port;
  validate : dev_addr:int -> nbytes:int -> int;
}

(* One accepted transfer: its base proxy pair plus the descriptor the
   shape became, each element clamped to its authorized page: what the
   DMA engine is handed. *)
type request = {
  src_proxy : int;
  dest_proxy : int;
  nbytes : int; (* total bytes over all elements *)
  desc : Descriptor.t;
  priority : priority;
  accepted_at : int; (* cycle the engine took the request *)
}

type counters = {
  initiations : int;
  completions : int;
  bad_loads : int;
  invals : int;
  probes : int;
  clamped : int;
  refused_full : int;
  device_errors : int;
  aborts : int;
  shape_latches : int;
}

type t = {
  engine : Engine.t;
  layout : Layout.t;
  dma_engine : Dma_engine.t;
  mode : mode;
  trace : Trace.t;
  m_initiations : Metrics.counter;
  m_completions : Metrics.counter;
  m_transfer_cycles : Metrics.sampler;
  m_clamped : Metrics.counter;
  m_shape_latches : Metrics.counter;
  m_invals : Metrics.counter;
  m_probes : Metrics.counter;
  m_bad_loads : Metrics.counter;
  m_device_errors : Metrics.counter;
  m_refused_full : Metrics.counter;
  m_aborts : Metrics.counter;
  mutable sm : Sm.state;
  mutable bindings : binding list;
  mutable active : request option;
  user_queue : request Queue.t;
  system_queue : request Queue.t;
  mutable refcounts : int array;
      (* memory frame -> outstanding refs, grown to cover the highest
         frame referenced so far *)
  mutable start_hook :
    (src_proxy:int -> dest_proxy:int -> nbytes:int -> unit) option;
}

let mode t = t.mode
let state t = t.sm

let sm_name s = Format.asprintf "%a" Sm.pp_state s

(* Every state-machine assignment funnels through here so the typed
   transition event can never drift from the actual state. *)
let set_sm t ~cause sm =
  if Trace.active t.trace && sm <> t.sm then
    Trace.record t.trace ~time:(Engine.now t.engine) Event.Udma
      (Event.Sm_transition { from_ = sm_name t.sm; to_ = sm_name sm; cause });
  t.sm <- sm

(* ---------- reference counting (I4 support, §7) ---------- *)

(* Add [delta] to frame [frame]'s count. *)
let add_ref t frame delta =
  let n = Array.length t.refcounts in
  if frame >= n then begin
    let grown = Array.make (Int.max (frame + 1) (2 * n)) 0 in
    Array.blit t.refcounts 0 grown 0 n;
    t.refcounts <- grown
  end;
  let c = t.refcounts.(frame) + delta in
  assert (c >= 0);
  t.refcounts.(frame) <- c

(* Count [delta] once per element for every frame the element's
   memory side touches: its whole range, so a transfer that escaped
   the page clamp would still be accounted honestly and I4 would see
   it. Clamped elements each touch one frame, so an affine side whose
   elements all lie in one frame counts them in one step. *)
let count_refs t r delta =
  let page_size = Layout.page_size t.layout in
  let range a len =
    for frame = a / page_size to (a + len - 1) / page_size do
      add_ref t frame delta
    done
  in
  match r.desc with
  | Descriptor.Affine { src; dst; count; src_stride; dst_stride; chunk; last } ->
      let side stride = function
        | Dma_engine.Dev _ -> ()
        | Dma_engine.Mem base ->
            (* the side's elements end by [base + reach] *)
            let reach =
              if count = 1 then last
              else Int.max (((count - 2) * stride) + chunk) (((count - 1) * stride) + last)
            in
            if base / page_size = (base + reach - 1) / page_size then
              add_ref t (base / page_size) (count * delta)
            else
              for i = 0 to count - 1 do
                range (base + (i * stride)) (if i = count - 1 then last else chunk)
              done
      in
      side src_stride src;
      side dst_stride dst
  | Descriptor.Elements { elems; _ } ->
      Array.iter
        (fun { Descriptor.src; dst; len } ->
          (match src with Dma_engine.Mem a -> range a len | Dma_engine.Dev _ -> ());
          match dst with Dma_engine.Mem a -> range a len | Dma_engine.Dev _ -> ())
        elems

let ref_incr t r = count_refs t r 1
let ref_decr t r = count_refs t r (-1)

let refcount t ~frame =
  if frame >= 0 && frame < Array.length t.refcounts then t.refcounts.(frame) else 0

(* ---------- device binding / endpoint resolution ---------- *)

(* Bindings never overlap and bind a port once, so a device-proxy
   address names one (port, device address) pair and back: the match
   flag relies on it. *)
let attach_device t ~base_page ~pages ~port ?(validate = fun ~dev_addr:_ ~nbytes:_ -> 0)
    () =
  if base_page < 0 || pages <= 0
     || base_page + pages > Layout.dev_pages t.layout then
    invalid_arg "Udma_engine.attach_device: pages out of range";
  List.iter
    (fun b ->
      if base_page < b.base_page + b.pages && b.base_page < base_page + pages
      then invalid_arg "Udma_engine.attach_device: overlapping binding";
      if b.port == port then invalid_arg "Udma_engine.attach_device: port already bound")
    t.bindings;
  t.bindings <- { base_page; pages; port; validate } :: t.bindings

(* Error bits reported in the status word's DEVICE-SPECIFIC field. *)
let err_unbound_device = 0x1
let err_device = 0x2 (* device's own validate failed *)
let err_refused = 0x4 (* DMA engine rejected the endpoints *)
let err_bad_shape = 0x8 (* shape expansion produced no usable element *)

exception Refused of int (* status error bits *)

(* The binding of device-proxy page [page]; an unbound page is a
   refusal. *)
let rec binding_of page = function
  | [] -> raise (Refused err_unbound_device)
  | b :: rest ->
      if page >= b.base_page && page < b.base_page + b.pages then b
      else binding_of page rest

let dev_binding t proxy =
  binding_of
    ((proxy - Layout.dev_proxy_base t.layout) / Layout.page_size t.layout)
    t.bindings

(* Byte [offset] of device-proxy page [page] is device address
   [(page - base_page) * page_size + offset] of binding [b]'s port. *)
let dev_addr t b proxy =
  proxy - Layout.dev_proxy_base t.layout - (b.base_page * Layout.page_size t.layout)

(* A device endpoint's binding validates the [len] bytes at [dev_addr];
   a failure raises [Refused]. *)
let check_device b ~dev_addr ~len =
  let validation = b.validate ~dev_addr ~nbytes:len in
  if validation <> 0 then
    (* low two device bits ride along in the status word *)
    raise (Refused (err_device lor ((validation land 0x3) lsl 2)))

(* Resolve a proxy address to its DMA endpoint, without validating
   any bytes: a device endpoint must be bound, or [Refused] is
   raised. *)
let endpoint t proxy (space : Sm.space) =
  match space with
  | Mem_space -> Dma_engine.Mem (Layout.unproxy t.layout proxy)
  | Dev_space ->
      let b = dev_binding t proxy in
      Dma_engine.Dev (b.port, dev_addr t b proxy)

(* Resolve one element's end and validate its [len] bytes. *)
let resolve t proxy space ~len =
  let e = endpoint t proxy space in
  (match e with
  | Dma_engine.Dev (_, dev_addr) -> check_device (dev_binding t proxy) ~dev_addr ~len
  | Dma_engine.Mem _ -> ());
  e

(* ---------- starting / queueing transfers ---------- *)

let record_started t r =
  Metrics.bump t.m_initiations;
  (match t.start_hook with
  | Some hook ->
      hook ~src_proxy:r.src_proxy ~dest_proxy:r.dest_proxy ~nbytes:r.nbytes
  | None -> ());
  if Trace.active t.trace then
    Trace.record t.trace ~time:(Engine.now t.engine) Event.Udma
      (Event.Udma_start
         { src = r.src_proxy; dst = r.dest_proxy; nbytes = r.nbytes })

let rec start_on_dma t r =
  match
    Dma_engine.submit_desc t.dma_engine r.desc
      ~on_complete:(fun () -> on_dma_complete t r)
  with
  | Ok () -> Ok ()
  | Error e ->
      if Trace.active t.trace then
        Trace.note t.trace ~time:(Engine.now t.engine) Event.Udma
          (Format.asprintf "dma refused (%a)" Dma_engine.pp_error e);
      Error err_refused

and on_dma_complete t r =
  ref_decr t r;
  Metrics.bump t.m_completions;
  Metrics.sample t.m_transfer_cycles (Engine.now t.engine - r.accepted_at);
  (match t.mode with
  | Basic ->
      let sm, action = Sm.step t.sm Done in
      set_sm t ~cause:"done" sm;
      (match action with
      | Sm.Completed -> ()
      | Sm.No_action | Sm.Latch_dest | Sm.Latch_shape | Sm.Invalidated
      | Sm.Start _ | Sm.Bad_load | Sm.Status_probe ->
          ())
  | Queued _ -> ());
  t.active <- None;
  dispatch_next t

and dispatch_next t =
  if not (Dma_engine.busy t.dma_engine) then begin
    let pop name q =
      let r = Queue.pop q in
      if Trace.active t.trace then
        Trace.record t.trace ~time:(Engine.now t.engine) Event.Udma
          (Event.Queue_pop { queue = name; depth = Queue.length q });
      r
    in
    let next =
      if not (Queue.is_empty t.system_queue) then
        Some (pop "system" t.system_queue)
      else if not (Queue.is_empty t.user_queue) then
        Some (pop "user" t.user_queue)
      else None
    in
    match next with
    | None -> ()
    | Some r -> (
        t.active <- Some r;
        match start_on_dma t r with
        | Ok () -> ()
        | Error _ ->
            (* endpoints were validated at acceptance; a refusal here is
               a hardware bug *)
            assert false)
  end

(* The pieces of a latched shape that survive the page clamp, in
   proxy space and in order. The source reference authorizes exactly
   the page [src_proxy] names; a destination piece is confined to its
   clamp base's page: the latched destination for flat/strided shapes,
   each sg word's own proxy for gather elements (every tagged store is
   its own reference). Pieces clamped to nothing are dropped (never
   piece zero: both bases have at least one byte of room). *)
type pieces =
  | Lattice of { count : int; stride : int; chunk : int; last : int }
      (* piece [i] moves [chunk] bytes (the last one [last]) from
         [src_proxy + i × stride] to [dest_proxy + i × chunk] *)
  | Listed of (int * int * int) list  (* (src proxy, dst proxy, len) *)

(* A flat shape is a strided one of one piece. Piece [i] of a strided
   shape starts [i × stride] into the source page and [i × chunk] into
   the destination page, and neither moves backward, so the room each
   side leaves a piece only shrinks: the kept pieces are a prefix, its
   length follows from the two rooms, and a piece shorter than [chunk]
   is the last one unless the source room is what cut it short and
   [stride < chunk] lets the next piece in. Only that ragged case
   lists its pieces, at most one page of them. *)
let strided_pieces t ~src_proxy ~dest ~stride ~chunk =
  let page_size = Layout.page_size t.layout in
  let total = dest.Sm.nbytes in
  let reps = (total + chunk - 1) / chunk in
  let piece i = Int.min chunk (total - (i * chunk)) in
  let room a = page_size - (a mod page_size) in
  let room_src = room src_proxy and room_dst = room dest.Sm.dest_proxy in
  let kept i =
    Int.min (piece i) (Int.min (room_src - (i * stride)) (room_dst - (i * chunk)))
  in
  let count =
    let src_reach = if stride = 0 then reps else (room_src + stride - 1) / stride in
    Int.min reps (Int.min src_reach ((room_dst + chunk - 1) / chunk))
  in
  if count >= 2 && kept (count - 2) < chunk then
    Listed
      (List.init count (fun i ->
           (src_proxy + (i * stride), dest.Sm.dest_proxy + (i * chunk), kept i)))
  else Lattice { count; stride; chunk; last = kept (count - 1) }

(* A gather shape: element zero is the latched destination; the sg
   words must leave it a positive remainder of the count. *)
let gather_pieces t ~src_proxy ~dest rev_elems =
  let page_size = Layout.page_size t.layout in
  let confine ~base addr len =
    if addr / page_size <> base / page_size then 0
    else Frontend.clamp_to_page ~page_size ~addr len
  in
  let others = List.rev rev_elems in
  let len0 =
    dest.Sm.nbytes - List.fold_left (fun acc (_, l) -> acc + l) 0 others
  in
  if len0 <= 0 then Error err_bad_shape
  else
    let keep s d len dbase rest =
      let len = Int.min (confine ~base:src_proxy s len) (confine ~base:dbase d len) in
      if len > 0 then (s, d, len) :: rest else rest
    in
    let rec go off = function
      | [] -> []
      | (p, l) :: rest -> keep (src_proxy + off) p l p (go (off + l) rest)
    in
    let d0 = dest.Sm.dest_proxy in
    Ok (Listed (keep src_proxy d0 len0 d0 (go len0 others)))

let pieces_bytes = function
  | Lattice { count; chunk; last; _ } -> ((count - 1) * chunk) + last
  | Listed ps -> List.fold_left (fun acc (_, _, len) -> acc + len) 0 ps

(* Resolve the kept pieces into the descriptor the DMA engine is
   handed: each side's binding is looked up once for a lattice, and a
   device side validates every element's bytes, in element order.
   Raises [Refused] at the first refusal. *)
let descriptor t ~src_proxy ~src_space ~dest = function
  | Lattice { count; stride; chunk; last } ->
      let dst_proxy = dest.Sm.dest_proxy and dst_space = dest.Sm.dest_space in
      let src = endpoint t src_proxy src_space in
      let dst = endpoint t dst_proxy dst_space in
      let validate proxy step = function
        | Dma_engine.Mem _ -> ()
        | Dma_engine.Dev (_, base) ->
            let b = dev_binding t proxy in
            for i = 0 to count - 1 do
              check_device b ~dev_addr:(base + (i * step))
                ~len:(if i = count - 1 then last else chunk)
            done
      in
      validate src_proxy stride src;
      validate dst_proxy chunk dst;
      Descriptor.Affine
        { src; dst; count; src_stride = stride; dst_stride = chunk; chunk; last }
  | Listed ps ->
      Descriptor.of_list
        (List.map
           (fun (s, d, len) ->
             let src = resolve t s src_space ~len in
             { Descriptor.src; dst = resolve t d dest.Sm.dest_space ~len; len })
           ps)

(* Build a request from an initiation pair: clamp the shape's pieces
   at the page boundaries their references authorize (the frontend's
   per-element clamp), count the clamped bytes, then resolve the
   endpoints and run device validation. *)
let build_request t ~src_proxy ~src_space ~dest ~priority =
  let pieces =
    match dest.Sm.shape with
    | Sm.Flat ->
        Ok (strided_pieces t ~src_proxy ~dest ~stride:0 ~chunk:dest.Sm.nbytes)
    | Sm.Strided { stride; chunk } ->
        Ok (strided_pieces t ~src_proxy ~dest ~stride ~chunk)
    | Sm.Gather { rev_elems } -> gather_pieces t ~src_proxy ~dest rev_elems
  in
  match pieces with
  | Error e -> Error e
  | Ok pieces -> (
      let nbytes = pieces_bytes pieces in
      if nbytes < dest.Sm.nbytes then Metrics.bump t.m_clamped;
      match descriptor t ~src_proxy ~src_space ~dest pieces with
      | exception Refused bits -> Error bits
      | desc ->
          Ok
            {
              src_proxy;
              dest_proxy = dest.Sm.dest_proxy;
              nbytes;
              desc;
              priority;
              accepted_at = Engine.now t.engine;
            })

(* Accept a request: start immediately or queue it. Returns the status
   fields describing the acceptance. *)
let accept t r =
  ref_incr t r;
  record_started t r;
  if Dma_engine.busy t.dma_engine then begin
    let name, q =
      match r.priority with
      | System -> ("system", t.system_queue)
      | User -> ("user", t.user_queue)
    in
    Queue.push r q;
    if Trace.active t.trace then
      Trace.record t.trace ~time:(Engine.now t.engine) Event.Udma
        (Event.Queue_push { queue = name; depth = Queue.length q });
    Ok `Queued
  end
  else begin
    t.active <- Some r;
    match start_on_dma t r with
    | Ok () -> Ok `Started
    | Error e ->
        ref_decr t r;
        t.active <- None;
        Metrics.bump_by t.m_initiations (-1);
        Error e
  end

let queued_len t = Queue.length t.user_queue + Queue.length t.system_queue

let outstanding t = queued_len t + if t.active = None then 0 else 1

(* ---------- oracle introspection ---------- *)

type req_view = { v_priority : priority; v_elements : Descriptor.element list }

let outstanding_requests t =
  let drain acc q = Queue.fold (fun acc r -> r :: acc) acc q in
  let acc = match t.active with Some r -> [ r ] | None -> [] in
  List.rev (drain (drain acc t.system_queue) t.user_queue)

let outstanding_views t =
  List.map
    (fun r -> { v_priority = r.priority; v_elements = Descriptor.elements r.desc })
    (outstanding_requests t)

(* Read back from the expanded views, not from the counters' own walk,
   so the I4 oracle compares two derivations. *)
let outstanding_frames t =
  let page_size = Layout.page_size t.layout in
  let frames len = function
    | Dma_engine.Mem a ->
        let first = a / page_size in
        List.init (((a + len - 1) / page_size) - first + 1) (fun k -> first + k)
    | Dma_engine.Dev _ -> []
  in
  List.concat_map
    (fun v ->
      List.concat_map
        (fun { Descriptor.src; dst; len } -> frames len src @ frames len dst)
        v.v_elements)
    (outstanding_views t)

let refcounts_snapshot t =
  let acc = ref [] in
  for f = Array.length t.refcounts - 1 downto 0 do
    if t.refcounts.(f) > 0 then acc := (f, t.refcounts.(f)) :: !acc
  done;
  !acc

(* ---------- match flag (associative query, §7) ---------- *)

(* A probe matches a request when it names the proxy of either end of
   one of its elements. Resolution maps proxy addresses one to one
   onto endpoints (see [attach_device]), so the query reads the
   descriptor itself: a memory-proxy probe looks for its real
   address, a device-proxy probe for its port and device address. An
   affine side names the addresses [base + i × stride] for [i] below
   its count: a residue and a range test. Nothing is allocated per
   probe; the queues are folded only when they hold a request. *)
let on_lattice ~count ~stride base a =
  a = base
  || (stride > 0 && a > base && a - base < count * stride && (a - base) mod stride = 0)

let mem_at ~count ~stride a = function
  | Dma_engine.Mem base -> on_lattice ~count ~stride base a
  | Dma_engine.Dev _ -> false

let dev_at ~count ~stride port x = function
  | Dma_engine.Dev (p, base) -> p == port && on_lattice ~count ~stride base x
  | Dma_engine.Mem _ -> false

(* An element of the array form is a lattice of one. *)
let rec names_mem a elems i =
  i < Array.length elems
  &&
  let { Descriptor.src; dst; _ } = elems.(i) in
  mem_at ~count:1 ~stride:0 a src || mem_at ~count:1 ~stride:0 a dst
  || names_mem a elems (i + 1)

let rec names_dev port x elems i =
  i < Array.length elems
  &&
  let { Descriptor.src; dst; _ } = elems.(i) in
  dev_at ~count:1 ~stride:0 port x src || dev_at ~count:1 ~stride:0 port x dst
  || names_dev port x elems (i + 1)

let request_matches t (space : Sm.space) proxy r =
  match (space, r.desc) with
  | Mem_space, Descriptor.Affine { src; dst; count; src_stride; dst_stride; _ } ->
      let a = Layout.unproxy t.layout proxy in
      mem_at ~count ~stride:src_stride a src || mem_at ~count ~stride:dst_stride a dst
  | Mem_space, Descriptor.Elements { elems; _ } ->
      names_mem (Layout.unproxy t.layout proxy) elems 0
  | Dev_space, desc -> (
      match dev_binding t proxy with
      | exception Refused _ -> false
      | b -> (
          let x = dev_addr t b proxy in
          match desc with
          | Descriptor.Affine { src; dst; count; src_stride; dst_stride; _ } ->
              dev_at ~count ~stride:src_stride b.port x src
              || dev_at ~count ~stride:dst_stride b.port x dst
          | Descriptor.Elements { elems; _ } -> names_dev b.port x elems 0))

let queue_matches t space proxy q =
  (not (Queue.is_empty q))
  && Queue.fold (fun acc r -> acc || request_matches t space proxy r) false q

let match_flag t space proxy =
  (match t.active with
  | Some r -> request_matches t space proxy r
  | None -> false)
  || queue_matches t space proxy t.user_queue
  || queue_matches t space proxy t.system_queue

(* ---------- status composition ---------- *)

let probe_status t space proxy =
  let transferring = Dma_engine.busy t.dma_engine in
  let invalid = match t.sm with Sm.Idle -> true | _ -> false in
  let remaining =
    match t.sm with
    | Sm.Dest_loaded d -> d.Sm.nbytes
    | Sm.Transferring _ -> Dma_engine.remaining_bytes t.dma_engine
    | Sm.Idle -> Dma_engine.remaining_bytes t.dma_engine
  in
  Status.probe ~transferring ~invalid ~matches:(match_flag t space proxy)
    ~remaining_bytes:remaining

(* ---------- bus-visible operations ---------- *)

let space_of_paddr t paddr =
  match Layout.region_of t.layout paddr with
  | Some Layout.Mem_proxy -> Some Sm.Mem_space
  | Some Layout.Dev_proxy -> Some Sm.Dev_space
  | Some Layout.Mem | None -> None

let handle_store t ~paddr value =
  match space_of_paddr t paddr with
  | None ->
      invalid_arg
        (Printf.sprintf "Udma_engine.handle_store: %#x not proxy space" paddr)
  | Some space ->
      let value = Int32.to_int value in
      if Trace.active t.trace then
        Trace.record t.trace ~time:(Engine.now t.engine) Event.Udma
          (Event.Proxy_store { proxy = paddr; value });
      let sm, action = Sm.step t.sm (Store { proxy = paddr; space; value }) in
      let cause =
        match action with Sm.Invalidated -> "inval" | _ -> "store"
      in
      set_sm t ~cause sm;
      (match action with
      | Sm.Latch_dest -> ()
      | Sm.Latch_shape ->
          Metrics.bump t.m_shape_latches
      | Sm.Invalidated ->
          Metrics.bump t.m_invals
      | Sm.No_action -> ()
      | Sm.Start _ | Sm.Bad_load | Sm.Status_probe | Sm.Completed ->
          (* stores never produce these *)
          assert false)

let count_probes t k = Metrics.bump_by t.m_probes k

(* A load in [Dest_loaded]: the rows of [Sm.step] that are not a
   status probe. *)
let load_step t ~paddr ~space =
  let sm, action = Sm.step t.sm (Load { proxy = paddr; space }) in
  match action with
  | Sm.Bad_load ->
      set_sm t ~cause:"bad-load" sm;
      Metrics.bump t.m_bad_loads;
      Status.make ~wrong_space:true ~invalid:true
        ~transferring:(Dma_engine.busy t.dma_engine) ()
  | Sm.Start { src_proxy; src_space; dest } -> (
      match build_request t ~src_proxy ~src_space ~dest ~priority:User with
      | Error bits ->
          set_sm t ~cause:"device-error" Sm.Idle;
          Metrics.bump t.m_device_errors;
          Status.make ~invalid:true ~device_error:(bits land 0xf)
            ~transferring:(Dma_engine.busy t.dma_engine) ()
      | Ok r -> (
          match t.mode with
          | Basic -> (
              (* the machine is Transferring iff the DMA is busy *)
              match accept t r with
              | Ok `Started ->
                  set_sm t ~cause:"start" sm;
                  Status.make ~started:true ~transferring:true ~matches:true
                    ~remaining_bytes:r.nbytes ()
              | Ok `Queued ->
                  (* cannot happen: basic mode implies dma idle here *)
                  assert false
              | Error bits ->
                  set_sm t ~cause:"device-error" Sm.Idle;
                  Metrics.bump t.m_device_errors;
                  Status.make ~invalid:true ~device_error:(bits land 0xf) ())
          | Queued { depth } ->
              if Dma_engine.busy t.dma_engine && queued_len t >= depth then begin
                (* refuse; keep DestLoaded so the user can retry the
                   LOAD alone (§7: refused only when the queue is
                   full) *)
                Metrics.bump t.m_refused_full;
                Status.make ~transferring:true ~queue_full:true
                  ~remaining_bytes:dest.Sm.nbytes ()
              end
              else
                (match accept t r with
                | Ok (`Started | `Queued) ->
                    set_sm t ~cause:"start" Sm.Idle;
                    Status.make ~started:true
                      ~transferring:(Dma_engine.busy t.dma_engine)
                      ~invalid:true ~matches:true ~remaining_bytes:r.nbytes
                      ()
                | Error bits ->
                    set_sm t ~cause:"device-error" Sm.Idle;
                    Metrics.bump t.m_device_errors;
                    Status.make ~invalid:true
                      ~device_error:(bits land 0xf) ())))
  | Sm.Status_probe | Sm.No_action | Sm.Latch_dest | Sm.Latch_shape
  | Sm.Invalidated | Sm.Completed ->
      (* answered by [handle_load]; loads never produce the rest *)
      assert false

let handle_load t ~paddr =
  match space_of_paddr t paddr with
  | None ->
      invalid_arg
        (Printf.sprintf "Udma_engine.handle_load: %#x not proxy space" paddr)
  | Some space ->
      if Trace.active t.trace then
        Trace.record t.trace ~time:(Engine.now t.engine) Event.Udma
          (Event.Proxy_load { proxy = paddr });
      if Sm.load_is_probe t.sm then begin
        (* what [Sm.step] answers here: a status probe in the same
           state, so there is no transition to record *)
        Metrics.bump t.m_probes;
        probe_status t space paddr
      end
      else Status.encode (load_step t ~paddr ~space)

(* ---------- kernel interface ---------- *)

let abort_active t =
  match t.active with
  | None -> false
  | Some r ->
      ignore (Dma_engine.abort t.dma_engine);
      ref_decr t r;
      t.active <- None;
      Metrics.bump t.m_aborts;
      if Trace.active t.trace then
        Trace.record t.trace ~time:(Engine.now t.engine) Event.Udma
          (Event.Udma_abort
             {
               reason =
                 Printf.sprintf "%#x -> %#x" r.src_proxy r.dest_proxy;
             });
      (match t.mode with
      | Basic -> set_sm t ~cause:"abort" Sm.Idle
      | Queued _ -> ());
      dispatch_next t;
      true

let invalidate t =
  (* Store of a negative count to any valid proxy address; we use the
     first memory-proxy address. *)
  let paddr = Layout.mem_proxy_base t.layout in
  handle_store t ~paddr (-1l)

let mem_frame_busy t ~frame =
  refcount t ~frame > 0
  || Dma_engine.mem_page_in_flight t.dma_engine
       ~page_size:(Layout.page_size t.layout) frame
  ||
  match t.sm with
  | Sm.Dest_loaded { dest_proxy; dest_space = Sm.Mem_space; _ } ->
      Layout.page_of_addr t.layout (Layout.unproxy t.layout dest_proxy) = frame
  | Sm.Dest_loaded _ | Sm.Idle | Sm.Transferring _ -> false

let enqueue_system t ~src_proxy ~dest_proxy ~nbytes =
  let space p =
    match space_of_paddr t p with
    | Some s -> s
    | None -> invalid_arg "Udma_engine.enqueue_system: not a proxy address"
  in
  let src_space = space src_proxy and dest_space = space dest_proxy in
  if src_space = dest_space || nbytes <= 0 then Error `Rejected
  else
    let full =
      match t.mode with
      | Basic ->
          (* depth-0: refuse whenever the engine is anything but idle,
             including mid-initiation, so the Basic-mode invariant
             (machine Transferring iff DMA busy) is preserved *)
          Dma_engine.busy t.dma_engine || t.sm <> Sm.Idle
      | Queued { depth } ->
          Dma_engine.busy t.dma_engine && queued_len t >= depth
    in
    if full then Error `Full
    else
      let dest = Sm.{ dest_proxy; dest_space; nbytes; shape = Sm.Flat } in
      match build_request t ~src_proxy ~src_space ~dest ~priority:System with
      | Error _ -> Error `Rejected
      | Ok r -> (
          match accept t r with
          | Ok (`Started | `Queued) ->
              (match t.mode with
              | Basic ->
                  (* mirror the hardware: a running transfer holds the
                     machine in Transferring until Done *)
                  set_sm t ~cause:"system-enqueue"
                    (Sm.Transferring
                       { src_proxy; src_space;
                         dest = { dest with Sm.nbytes = r.nbytes } })
              | Queued _ -> ());
              Ok ()
          | Error _ -> Error `Rejected)

(* ---------- construction ---------- *)

let counters t =
  {
    initiations = Metrics.read t.m_initiations;
    completions = Metrics.read t.m_completions;
    bad_loads = Metrics.read t.m_bad_loads;
    invals = Metrics.read t.m_invals;
    probes = Metrics.read t.m_probes;
    clamped = Metrics.read t.m_clamped;
    refused_full = Metrics.read t.m_refused_full;
    device_errors = Metrics.read t.m_device_errors;
    aborts = Metrics.read t.m_aborts;
    shape_latches = Metrics.read t.m_shape_latches;
  }

let set_start_hook t hook = t.start_hook <- Some hook

let create ~engine ~layout ~bus ~dma ?(mode = Basic)
    ?(trace = Trace.create ~enabled:false ())
    ?(metrics = Metrics.create ()) () =
  (match mode with
  | Queued { depth } when depth < 1 ->
      invalid_arg "Udma_engine.create: queue depth must be >= 1"
  | Queued _ | Basic -> ());
  let counter = Metrics.counter metrics in
  let t =
    {
      engine;
      layout;
      dma_engine = dma;
      mode;
      trace;
      m_initiations = counter "udma.initiations";
      m_completions = counter "udma.completions";
      m_transfer_cycles = Metrics.sampler metrics "udma.transfer_cycles";
      m_clamped = counter "udma.clamped";
      m_shape_latches = counter "udma.shape_latches";
      m_invals = counter "udma.invals";
      m_probes = counter "udma.probes";
      m_bad_loads = counter "udma.bad_loads";
      m_device_errors = counter "udma.device_errors";
      m_refused_full = counter "udma.refused_full";
      m_aborts = counter "udma.aborts";
      sm = Sm.Idle;
      bindings = [];
      active = None;
      user_queue = Queue.create ();
      system_queue = Queue.create ();
      refcounts = [||];
      start_hook = None;
    }
  in
  let handler =
    Bus.
      {
        io_load = (fun ~paddr -> handle_load t ~paddr);
        io_store = (fun ~paddr v -> handle_store t ~paddr v);
      }
  in
  let mem_proxy_size = Layout.mem_pages layout * Layout.page_size layout in
  Bus.register_io bus ~base:(Layout.mem_proxy_base layout) ~size:mem_proxy_size
    handler;
  let dev_proxy_size = Layout.dev_pages layout * Layout.page_size layout in
  Bus.register_io bus ~base:(Layout.dev_proxy_base layout) ~size:dev_proxy_size
    handler;
  t
