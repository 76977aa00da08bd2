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

(* One accepted transfer: its base proxy pair plus the flat elements
   the shape expanded into (a single element for flat initiations),
   each clamped to its authorized page: the list the DMA engine is
   handed. *)
type request = {
  src_proxy : int;
  dest_proxy : int;
  nbytes : int; (* total bytes over all elements *)
  elems : Descriptor.element list;
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
  skip_clamp : bool; (* D1 mutation: drop the per-element page clamp *)
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

(* Apply [f] to every frame a memory-side endpoint of [r] touches —
   normally one per element (elements are clamped to the authorized
   page), but the full range so an unclamped (mutated) transfer is
   accounted honestly and I4 can see it. *)
let iter_frames t r f =
  let page_size = Layout.page_size t.layout in
  let mem_frames ep len =
    match ep with
    | Dma_engine.Mem a ->
        for frame = a / page_size to (a + len - 1) / page_size do
          f frame
        done
    | Dma_engine.Dev _ -> ()
  in
  List.iter
    (fun { Descriptor.src; dst; len } ->
      mem_frames src len;
      mem_frames dst len)
    r.elems

let ref_incr t r =
  iter_frames t r (fun f ->
      let n = Array.length t.refcounts in
      if f >= n then begin
        let grown = Array.make (Int.max (f + 1) (2 * n)) 0 in
        Array.blit t.refcounts 0 grown 0 n;
        t.refcounts <- grown
      end;
      t.refcounts.(f) <- t.refcounts.(f) + 1)

let ref_decr t r =
  iter_frames t r (fun f ->
      assert (t.refcounts.(f) > 0);
      t.refcounts.(f) <- t.refcounts.(f) - 1)

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

(* Resolve a proxy address to its DMA endpoint. A device endpoint must
   be bound, and its binding's validation must pass for the [len]
   bytes of the element; either failure raises [Refused]. *)
let resolve t proxy (space : Sm.space) ~len =
  match space with
  | Mem_space -> Dma_engine.Mem (Layout.unproxy t.layout proxy)
  | Dev_space ->
      let b = dev_binding t proxy in
      let dev_addr = dev_addr t b proxy in
      let validation = b.validate ~dev_addr ~nbytes:len in
      if validation <> 0 then
        (* low two device bits ride along in the status word *)
        raise (Refused (err_device lor ((validation land 0x3) lsl 2)));
      Dma_engine.Dev (b.port, dev_addr)

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
    Dma_engine.submit t.dma_engine r.elems
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

(* Fold [f] over a latched shape's raw proxy-space elements, in
   order: (src paddr, dst paddr, len, dst clamp base). The clamp base
   is the proxy address whose page authorizes the destination bytes:
   the latched destination for flat/strided shapes, each sg word's own
   proxy for gather elements (every tagged store is its own
   reference). *)
let fold_shape ~src_proxy ~dest f acc =
  let dst = dest.Sm.dest_proxy and total = dest.Sm.nbytes in
  match dest.Sm.shape with
  | Sm.Flat -> Ok (f acc src_proxy dst total dst)
  | Sm.Strided { stride; chunk } ->
      let reps = (total + chunk - 1) / chunk in
      let rec go i acc =
        if i = reps then acc
        else
          go (i + 1)
            (f acc (src_proxy + (i * stride)) (dst + (i * chunk))
               (Int.min chunk (total - (i * chunk)))
               dst)
      in
      Ok (go 0 acc)
  | Sm.Gather { rev_elems } ->
      let others = List.rev rev_elems in
      let listed = List.fold_left (fun acc (_, l) -> acc + l) 0 others in
      let len0 = total - listed in
      (* element zero is the latched destination; the sg words must
         leave it a positive remainder of the count *)
      if len0 <= 0 then Error err_bad_shape
      else
        let rec go off acc = function
          | [] -> acc
          | (p, l) :: rest -> go (off + l) (f acc (src_proxy + off) p l p) rest
        in
        Ok (go len0 (f acc src_proxy dst len0 dst) others)

(* Build a request from an initiation pair in one walk over the shape:
   clamp each element at the page boundaries its references authorize
   (the frontend's per-element clamp), resolve its endpoints and run
   device validation. The walk keeps counting the clamped bytes after
   the first refusal but resolves nothing more. *)
let build_request t ~src_proxy ~src_space ~dest ~priority =
  let page_size = Layout.page_size t.layout in
  (* The source reference authorizes exactly the page [src_proxy]
     names; a destination element is confined to its clamp base's
     page. Elements clamped to nothing are dropped (never element
     zero: both bases have at least one byte of room). *)
  let confine ~base addr len =
    if addr / page_size <> base / page_size then 0
    else Frontend.clamp_to_page ~page_size ~addr len
  in
  let total = ref 0 and refusal = ref None in
  let step rev s d len dbase =
    let len =
      if t.skip_clamp then len
      else Int.min (confine ~base:src_proxy s len) (confine ~base:dbase d len)
    in
    if len <= 0 then rev
    else begin
      total := !total + len;
      match !refusal with
      | Some _ -> rev
      | None -> (
          match
            let src = resolve t s src_space ~len in
            { Descriptor.src; dst = resolve t d dest.Sm.dest_space ~len; len }
          with
          | e -> e :: rev
          | exception Refused bits ->
              refusal := Some bits;
              rev)
    end
  in
  match fold_shape ~src_proxy ~dest step [] with
  | Error e -> Error e
  | Ok _ when !total <= 0 -> Error err_bad_shape
  | Ok rev -> (
      if !total < dest.Sm.nbytes then Metrics.bump t.m_clamped;
      match !refusal with
      | Some bits -> Error bits
      | None ->
          Ok
            {
              src_proxy;
              dest_proxy = dest.Sm.dest_proxy;
              nbytes = !total;
              elems = List.rev rev;
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
    (fun r -> { v_priority = r.priority; v_elements = r.elems })
    (outstanding_requests t)

let outstanding_frames t =
  let frames = ref [] in
  List.iter
    (fun r -> iter_frames t r (fun f -> frames := f :: !frames))
    (outstanding_requests t);
  List.rev !frames

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
   element list itself: a memory-proxy probe looks for its real
   address, a device-proxy probe for its port and device address.
   Plain recursion, so a probe allocates nothing; the queues are
   folded only when they hold a request. *)
let is_mem a = function Dma_engine.Mem m -> m = a | Dma_engine.Dev _ -> false

let is_dev port d = function
  | Dma_engine.Dev (p, x) -> p == port && x = d
  | Dma_engine.Mem _ -> false

let rec names_mem a = function
  | [] -> false
  | { Descriptor.src; dst; _ } :: rest ->
      is_mem a src || is_mem a dst || names_mem a rest

let rec names_dev port d = function
  | [] -> false
  | { Descriptor.src; dst; _ } :: rest ->
      is_dev port d src || is_dev port d dst || names_dev port d rest

let request_matches t (space : Sm.space) proxy r =
  match space with
  | Mem_space -> names_mem (Layout.unproxy t.layout proxy) r.elems
  | Dev_space -> (
      match dev_binding t proxy with
      | b -> names_dev b.port (dev_addr t b proxy) r.elems
      | exception Refused _ -> false)

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

let create ~engine ~layout ~bus ~dma ?(mode = Basic) ?(skip_clamp = false)
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
      skip_clamp;
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
