(* Property-based tests (qcheck) on core data structures and the
   paper's invariants, registered as alcotest cases. *)

module Eventq = Udma_sim.Eventq
module Rng = Udma_sim.Rng
module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Status = Udma.Status
module Sm = Udma.State_machine
module Initiator = Udma.Initiator
module M = Udma_os.Machine
module Vm = Udma_os.Vm
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module Kernel = Udma_os.Kernel
module Device = Udma_dma.Device
module Udma_engine = Udma.Udma_engine

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------- Eventq: pops are sorted, ties FIFO ---------- *)

let prop_eventq_sorted =
  qtest "eventq pops sorted, ties in insertion order"
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Eventq.create () in
      List.iteri (fun i t -> Eventq.push q ~time:t i) times;
      let rec drain acc =
        match Eventq.pop q with
        | Some (t, i) -> drain ((t, i) :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      let rec sorted = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && sorted rest
        | [ _ ] | [] -> true
      in
      List.length out = List.length times && sorted out)

(* ---------- Eventq: tagged model across growth ---------- *)

(* Random interleavings of push (random time, key and tag), pop and
   clear against a sorted-list reference. Pops come out in (time, key,
   insertion) order, and [min_tag] read before each pop is the tag its
   payload was pushed with. Pushes outweigh pops 4:1, clears come about
   once per 1,000 operations and traces run 500-2,000 operations, so
   the queue grows through several doublings (64, 128, 256, ...
   slots), and a clear leaves the grown arrays to be refilled through
   their free-slot stack. *)
type tagged_op = T_push of int * int * int | T_pop | T_clear

let prop_eventq_tagged_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 800,
            map3 (fun t k g -> T_push (t, k, g)) (int_bound 50) (int_bound 3)
              (int_bound 1_000_000) );
          (200, return T_pop);
          (1, return T_clear);
        ])
  in
  let print_op = function
    | T_push (t, k, g) -> Printf.sprintf "push(t=%d,k=%d,tag=%d)" t k g
    | T_pop -> "pop"
    | T_clear -> "clear"
  in
  let arb =
    QCheck.make
      ~print:QCheck.Print.(list print_op)
      QCheck.Gen.(list_size (500 -- 2_000) gen_op)
  in
  qtest ~count:100 "eventq tagged trace = sorted-list model across growth" arb
    (fun ops ->
      let q = Eventq.create () in
      (* the model holds (time, key, id, tag), sorted; an insert goes
         behind every entry at or before its (time, key) *)
      let model = ref [] in
      let rec insert ((t, k, _, _) as x) = function
        | ((t', k', _, _) as y) :: rest when (t', k') <= (t, k) ->
            y :: insert x rest
        | l -> x :: l
      in
      let next_id = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | T_push (t, k, g) ->
              let id = !next_id in
              incr next_id;
              Eventq.push q ~time:t ~key:k ~tag:g id;
              model := insert (t, k, id, g) !model;
              Eventq.length q = List.length !model
          | T_pop -> (
              match !model with
              | [] -> Eventq.is_empty q && Eventq.pop q = None
              | (t, _, id, g) :: rest ->
                  model := rest;
                  let time = Eventq.min_time q in
                  let tag = Eventq.min_tag q in
                  let got = Eventq.pop_payload q in
                  time = t && tag = g && got = id)
          | T_clear ->
              Eventq.clear q;
              model := [];
              Eventq.is_empty q)
        ops
      &&
      (* drain what is left: the same order, every tag with its payload *)
      List.for_all
        (fun (t, _, id, g) ->
          Eventq.min_time q = t
          && Eventq.min_tag q = g
          && Eventq.pop_payload q = id)
        !model
      && Eventq.is_empty q)

(* ---------- Status: encode/decode is the identity ---------- *)

let status_gen =
  QCheck.(
    map
      (fun (a, b, c, (d, e, f, (err, rem))) ->
        Status.make ~started:a ~transferring:b ~invalid:c ~matches:d
          ~wrong_space:e ~queue_full:f ~device_error:err ~remaining_bytes:rem
          ())
      (quad bool bool bool
         (quad bool bool bool (pair (int_bound 15) (int_bound Status.max_remaining)))))

(* [has] reads each flag off the word as [decode] does, and [probe]
   is [make] restricted to the fields a probe sets. *)
let prop_status_roundtrip =
  qtest "status encode/decode roundtrip" status_gen (fun s ->
      let w = Status.encode s in
      Status.equal s (Status.decode w)
      && Status.(has Started w) = s.started
      && Status.(has Transferring w) = s.transferring
      && Status.(has Invalid w) = s.invalid
      && Status.(has Matches w) = s.matches
      && Int32.equal
           (Status.probe ~transferring:s.transferring ~invalid:s.invalid
              ~matches:s.matches ~remaining_bytes:s.remaining_bytes)
           (Status.encode
              (Status.make ~transferring:s.transferring ~invalid:s.invalid
                 ~matches:s.matches ~remaining_bytes:s.remaining_bytes ())))

(* ---------- Phys_mem: per-frame table = flat bytes ---------- *)

(* Random traces of byte, word and bulk reads and writes, overlapping
   blits and frame fills against one flat [Bytes.t]. Page sizes run
   from 1 (a word spans four frames) through 64 to 512, ranges cross
   frame boundaries, and written bytes are zero about half the time so
   all-zero stores into untouched frames happen often. After every
   step [materialized] must equal the frames the model says took a
   non-zero byte since their last [fill_frame 0]; at the end, once every
   all-zero frame is filled with 0, it must equal the frames that hold
   a non-zero byte. *)
type mem_op =
  | M_byte of int * int
  | M_word of int * int32
  | M_bytes of int * string
  | M_read of int * int
  | M_blit of int * int * int
  | M_fill of int * int

let prop_phys_mem_model =
  let module P = Udma_memory.Phys_mem in
  let gen =
    QCheck.Gen.(
      let* page_size = oneofl [ 1; 2; 4; 64; 512 ] in
      let* frames = int_range 1 12 in
      let size = page_size * frames in
      let addr = int_bound (size - 1) in
      let byte = frequency [ (1, return 0); (1, int_range 1 255) ] in
      let range =
        let* a = addr in
        let+ len = int_bound (min (size - a) (3 * page_size)) in
        (a, len)
      in
      let op =
        frequency
          [
            (3, map2 (fun a v -> M_byte (a, v)) addr byte);
            ( 2,
              if size < 4 then map2 (fun a v -> M_byte (a, v)) addr byte
              else
                map2
                  (fun a v -> M_word (a land lnot 3, Int32.of_int v))
                  (int_bound (size - 4))
                  (frequency [ (1, return 0); (2, int_bound 0x3fffffff) ]) );
            ( 3,
              let* a, len = range in
              let+ bytes = string_size ~gen:(map Char.chr byte) (return len) in
              M_bytes (a, bytes) );
            (2, map (fun (a, len) -> M_read (a, len)) range);
            ( 3,
              let* src, len = range in
              let+ dst = int_bound (size - len) in
              M_blit (src, dst, len) );
            (1, map2 (fun f v -> M_fill (f, v)) (int_bound (frames - 1)) byte);
          ]
      in
      let+ ops = list_size (1 -- 120) op in
      (page_size, frames, ops))
  in
  let print_op = function
    | M_byte (a, v) -> Printf.sprintf "byte(%d,%d)" a v
    | M_word (a, v) -> Printf.sprintf "word(%d,%ld)" a v
    | M_bytes (a, b) -> Printf.sprintf "bytes(%d,%S)" a b
    | M_read (a, n) -> Printf.sprintf "read(%d,%d)" a n
    | M_blit (s, d, n) -> Printf.sprintf "blit(%d->%d,%d)" s d n
    | M_fill (f, v) -> Printf.sprintf "fill(%d,%d)" f v
  in
  let print (ps, fr, ops) =
    Printf.sprintf "page %d, frames %d: %s" ps fr
      (String.concat " " (List.map print_op ops))
  in
  qtest ~count:300 "phys_mem = flat-bytes model, materialized exact"
    (QCheck.make ~print gen) (fun (page_size, frames, ops) ->
      let m = P.create ~frames ~page_size in
      let flat = Bytes.make (frames * page_size) '\000' in
      let dirty = Array.make frames false in
      (* the model side of a store: bytes [b] land at [addr] *)
      let store addr b =
        Bytes.iteri
          (fun i c ->
            if c <> '\000' then dirty.((addr + i) / page_size) <- true)
          b;
        Bytes.blit b 0 flat addr (Bytes.length b)
      in
      let dirty_count () =
        Array.fold_left (fun n d -> if d then n + 1 else n) 0 dirty
      in
      List.for_all
        (fun op ->
          (match op with
          | M_byte (a, v) ->
              P.write_byte m a v;
              store a (Bytes.make 1 (Char.chr v))
          | M_word (a, v) ->
              P.write_word m a v;
              let b = Bytes.create 4 in
              Bytes.set_int32_le b 0 v;
              store a b
          | M_bytes (a, s) ->
              P.write_bytes m ~addr:a (Bytes.of_string s);
              store a (Bytes.of_string s)
          | M_read _ -> ()
          | M_blit (src, dst, len) ->
              P.blit m ~src ~dst ~len;
              store dst (Bytes.sub flat src len)
          | M_fill (f, v) ->
              P.fill_frame m ~frame:f v;
              Bytes.fill flat (f * page_size) page_size (Char.chr v);
              dirty.(f) <- v <> 0);
          let reads_agree =
            match op with
            | M_read (a, len) ->
                Bytes.equal (P.read_bytes m ~addr:a ~len) (Bytes.sub flat a len)
                && (len = 0 || P.read_byte m a = Char.code (Bytes.get flat a))
                && (a land 3 <> 0
                   || a + 4 > Bytes.length flat
                   || P.read_word m a = Bytes.get_int32_le flat a)
            | M_byte _ | M_word _ | M_bytes _ | M_blit _ | M_fill _ -> true
          in
          reads_agree && P.materialized m = dirty_count ())
        ops
      && Bytes.equal (P.read_bytes m ~addr:0 ~len:(Bytes.length flat)) flat
      &&
      let holds_data f =
        not (Bytes.for_all (( = ) '\000') (Bytes.sub flat (f * page_size) page_size))
      in
      let non_zero = ref 0 in
      for f = 0 to frames - 1 do
        if holds_data f then incr non_zero else P.fill_frame m ~frame:f 0
      done;
      P.materialized m = !non_zero
      && Bytes.equal (P.read_bytes m ~addr:0 ~len:(Bytes.length flat)) flat)

(* ---------- Layout: proxy is a bijection on memory ---------- *)

let prop_layout_proxy_bijection =
  qtest "PROXY is a bijection between memory and proxy space"
    QCheck.(int_bound ((64 * 4096) - 1))
    (fun addr ->
      let l = Layout.create ~page_size:4096 ~mem_pages:64 ~dev_pages:8 in
      let p = Layout.proxy_of l addr in
      Layout.region_of l p = Some Layout.Mem_proxy
      && Layout.unproxy l p = addr
      && Layout.offset_in_page l p = Layout.offset_in_page l addr)

(* ---------- State machine invariants ---------- *)

let event_gen =
  QCheck.(
    map
      (fun (k, proxy, value) ->
        let space = if proxy land 1 = 0 then Sm.Mem_space else Sm.Dev_space in
        match k mod 3 with
        | 0 -> Sm.Store { proxy; space; value }
        | 1 -> Sm.Load { proxy; space }
        | _ -> Sm.Done)
      (triple (int_bound 100) (int_bound 64) (int_range (-4) 100)))

(* Transferring is entered only through a Start action, and Start only
   happens on a Load whose space differs from the latched destination. *)
let prop_sm_transferring_only_via_start =
  qtest ~count:500 "Transferring entered only via Start"
    QCheck.(list event_gen)
    (fun events ->
      let ok = ref true in
      let state = ref Sm.Idle in
      List.iter
        (fun ev ->
          let prev = !state in
          let next, action = Sm.step prev ev in
          (match (prev, next) with
          | (Sm.Idle | Sm.Dest_loaded _), Sm.Transferring _ -> (
              match action with Sm.Start _ -> () | _ -> ok := false)
          | Sm.Transferring _, _ | _, (Sm.Idle | Sm.Dest_loaded _) -> ());
          (* a started transfer only leaves via Done *)
          (match (prev, ev, next) with
          | Sm.Transferring _, Sm.Done, Sm.Idle -> ()
          | Sm.Transferring _, Sm.Done, _ -> ok := false
          | Sm.Transferring t, _, next when next <> Sm.Transferring t ->
              ok := false
          | _ -> ());
          state := next)
        events;
      !ok)

(* After an Inval the machine is Idle unless it was Transferring. *)
let prop_sm_inval_resets =
  qtest ~count:500 "Inval resets any partial initiation"
    QCheck.(list event_gen)
    (fun events ->
      let state = ref Sm.Idle in
      List.iter (fun ev -> state := fst (Sm.step !state ev)) events;
      let before = !state in
      let after, _ =
        Sm.step before (Sm.Store { proxy = 0; space = Sm.Mem_space; value = -1 })
      in
      match before with
      | Sm.Transferring _ -> after = before (* never disturbed *)
      | Sm.Idle | Sm.Dest_loaded _ -> after = Sm.Idle)

(* ---------- Rng ---------- *)

let prop_rng_in_bounds =
  qtest "rng stays in bounds"
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* ---------- end-to-end: random transfers deliver exact bytes ---------- *)

let transfer_rig () =
  let config = { M.default_config with M.mem_pages = 64 } in
  let m = M.create ~config () in
  let udma = Option.get m.M.udma in
  let port, store = Device.buffer "d" ~size:(16 * 4096) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:16 ~port ();
  let proc = Scheduler.spawn m ~name:"p" in
  for i = 0 to 15 do
    match Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i ~writable:true with
    | Ok () -> ()
    | Error _ -> failwith "grant"
  done;
  (m, proc, store)

let prop_random_transfers_exact =
  qtest ~count:40 "random transfers deliver exact bytes"
    QCheck.(pair (int_range 1 12_000) (int_bound 1000))
    (fun (nbytes, seed) ->
      let m, proc, store = transfer_rig () in
      let buf = Kernel.alloc_buffer m proc ~bytes:16384 in
      let data = Bytes.init nbytes (fun i -> Char.chr ((i * 31 + seed) land 0xff)) in
      Kernel.write_user m proc ~vaddr:buf data;
      let cpu = Kernel.user_cpu m proc in
      match
        Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
          ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
          ~nbytes ()
      with
      | Ok _ ->
          Engine.run_until_idle m.M.engine;
          Bytes.sub store 0 nbytes = data
      | Error _ -> false)

(* offsets that straddle page boundaries on either side *)
let prop_unaligned_offsets_exact =
  qtest ~count:40 "transfers from odd offsets split correctly"
    QCheck.(pair (int_range 0 4092) (int_range 1 8000))
    (fun (off, nbytes) ->
      let off = off land lnot 3 in
      let m, proc, store = transfer_rig () in
      let buf = Kernel.alloc_buffer m proc ~bytes:16384 in
      let data = Bytes.init nbytes (fun i -> Char.chr ((i * 7) land 0xff)) in
      Kernel.write_user m proc ~vaddr:(buf + off) data;
      let cpu = Kernel.user_cpu m proc in
      match
        Initiator.transfer cpu ~layout:m.M.layout
          ~src:(Initiator.Memory (buf + off))
          ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:1 ~offset:0))
          ~nbytes ()
      with
      | Ok _ ->
          Engine.run_until_idle m.M.engine;
          Bytes.sub store 4096 nbytes = data
      | Error _ -> false)

(* ---------- paging: random overcommit never loses data ---------- *)

let prop_paging_preserves_data =
  qtest ~count:15 "random paging workload preserves data"
    QCheck.(pair (int_range 1 1000) (int_range 18 40))
    (fun (seed, buffers) ->
      let config = { M.default_config with M.mem_pages = 16 } in
      let m = M.create ~config () in
      let proc = Scheduler.spawn m ~name:"p" in
      let rng = Rng.create seed in
      let bufs =
        Array.init buffers (fun i ->
            let v = Kernel.alloc_buffer m proc ~bytes:4096 in
            Kernel.write_user m proc ~vaddr:v
              (Bytes.make 4096 (Char.chr ((i * 3) land 0xff)));
            (v, i))
      in
      (* random touch order, including rewrites *)
      let ok = ref true in
      for _ = 1 to 60 do
        let v, i = bufs.(Rng.int rng buffers) in
        if Rng.bool rng then
          Kernel.write_user m proc ~vaddr:v
            (Bytes.make 4096 (Char.chr ((i * 3) land 0xff)))
        else begin
          let got = Kernel.read_user m proc ~vaddr:v ~len:4096 in
          if got <> Bytes.make 4096 (Char.chr ((i * 3) land 0xff)) then
            ok := false
        end
      done;
      Array.iter
        (fun (v, i) ->
          let got = Kernel.read_user m proc ~vaddr:v ~len:4096 in
          if got <> Bytes.make 4096 (Char.chr ((i * 3) land 0xff)) then ok := false)
        bufs;
      !ok)

(* ---------- I1 under random preemption: correct and violation-free ---------- *)

let prop_i1_random_preemption =
  qtest ~count:10 "I1: random preemption never mis-pairs and data stays exact"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let m, proc, store = transfer_rig () in
      let p2 = Scheduler.spawn m ~name:"other" in
      ignore p2;
      let rng = Rng.create seed in
      Scheduler.set_preempt_hook m (Some (fun _ -> Rng.int rng 100 < 30));
      let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
      let data = Bytes.init 512 (fun i -> Char.chr ((i + seed) land 0xff)) in
      Kernel.write_user m proc ~vaddr:buf data;
      let cpu = Kernel.user_cpu m proc in
      let ok =
        match
          Initiator.transfer cpu ~layout:m.M.layout ~src:(Initiator.Memory buf)
            ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:2 ~offset:0))
            ~nbytes:512 ()
        with
        | Ok _ ->
            Engine.run_until_idle m.M.engine;
            Bytes.sub store (2 * 4096) 512 = data
        | Error _ -> false
      in
      Scheduler.set_preempt_hook m None;
      ok)

(* ---------- queued engine: random pieces, exact delivery ---------- *)

let queued_rig depth =
  let config =
    { M.default_config with
      M.mem_pages = 64;
      udma_mode = Some (Udma_engine.Queued { depth }) }
  in
  let m = M.create ~config () in
  let udma = Option.get m.M.udma in
  let port, store = Device.buffer "d" ~size:(16 * 4096) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:16 ~port ();
  let proc = Scheduler.spawn m ~name:"p" in
  for i = 0 to 15 do
    match Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i ~writable:true with
    | Ok () -> ()
    | Error _ -> failwith "grant"
  done;
  (m, udma, proc, store)

let prop_queued_random_exact =
  qtest ~count:30 "queued engine delivers random transfers exactly"
    QCheck.(triple (int_range 1 4) (int_range 1 12_000) (int_bound 1000))
    (fun (depth, nbytes, seed) ->
      let m, udma, proc, store = queued_rig depth in
      let buf = Kernel.alloc_buffer m proc ~bytes:16384 in
      let data =
        Bytes.init nbytes (fun i -> Char.chr ((i * 13 + seed) land 0xff))
      in
      Kernel.write_user m proc ~vaddr:buf data;
      let cpu = Kernel.user_cpu m proc in
      match
        Initiator.transfer_queued cpu ~layout:m.M.layout
          ~src:(Initiator.Memory buf)
          ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
          ~nbytes ()
      with
      | Ok _ ->
          Engine.run_until_idle m.M.engine;
          Bytes.sub store 0 nbytes = data
          && Udma_engine.outstanding udma = 0
          && Udma_engine.refcount udma
               ~frame:(Option.get (Vm.frame_of_vpn m proc ~vpn:(buf / 4096)))
             = 0
      | Error _ -> false)

(* ---------- queued refcounts drain to zero ---------- *)

(* Any mix of accepted and rejected initiations — valid pairs in both
   directions, wrong-space pairs the hardware refuses, half pairs the
   kernel invalidates — leaves every per-frame reference counter at
   zero once the engine drains (the I4 bookkeeping never leaks). *)
let prop_queued_refcounts_drain =
  qtest ~count:40 "queued per-frame refcounts return to zero after a drain"
    QCheck.(triple (int_range 1 4) (small_list (int_bound 99)) (int_bound 1000))
    (fun (depth, ops, salt) ->
      let m, udma, proc, _store = queued_rig depth in
      let buf = Kernel.alloc_buffer m proc ~bytes:(4 * 4096) in
      let cpu = Kernel.user_cpu m proc in
      let layout = m.M.layout in
      let mem_proxy i = Udma_mmu.Layout.proxy_of layout (buf + 4096 * (i mod 4)) in
      let dev i = Kernel.vdev_addr m ~index:(i mod 16) ~offset:0 in
      List.iteri
        (fun i op ->
          let nbytes = 4 * (1 + ((op * 37 + salt) mod 1024)) in
          match op mod 5 with
          | 0 ->
              (* mem -> dev raw pair *)
              cpu.Initiator.store ~vaddr:(dev i) (Int32.of_int nbytes);
              ignore (cpu.Initiator.load ~vaddr:(mem_proxy i))
          | 1 ->
              (* dev -> mem raw pair *)
              cpu.Initiator.store ~vaddr:(mem_proxy i) (Int32.of_int nbytes);
              ignore (cpu.Initiator.load ~vaddr:(dev i))
          | 2 ->
              (* wrong-space pair: refused with BadLoad *)
              cpu.Initiator.store ~vaddr:(mem_proxy i) (Int32.of_int nbytes);
              ignore (cpu.Initiator.load ~vaddr:(mem_proxy (i + 1)))
          | 3 ->
              (* half pair, then the kernel's I1 Inval *)
              cpu.Initiator.store ~vaddr:(dev i) (Int32.of_int nbytes);
              Udma_engine.invalidate udma
          | _ ->
              (* status probe *)
              ignore (cpu.Initiator.load ~vaddr:(dev i)))
        ops;
      Engine.run_until_idle m.M.engine;
      Udma_engine.outstanding udma = 0
      && Udma_engine.refcounts_snapshot udma = [])

(* ---------- Trace: ring wraparound keeps the newest records ---------- *)

let prop_trace_wraparound =
  qtest ~count:200 "trace at capacity keeps a suffix ending in the newest"
    QCheck.(pair (int_range 1 64) (int_bound 300))
    (fun (capacity, n) ->
      let module Event = Udma_obs.Event in
      let t = Udma_sim.Trace.create ~capacity ~enabled:true () in
      for i = 0 to n - 1 do
        Udma_sim.Trace.note t ~time:i Event.Sim (string_of_int i)
      done;
      let evs = Udma_sim.Trace.events t in
      let len = List.length evs in
      let is_seq i (ev : Event.t) =
        ev.Event.time = i && ev.Event.payload = Event.Note (string_of_int i)
      in
      (* the exact retained length depends on trim points; the contract
         is: bounded by capacity, a consecutive suffix, newest last *)
      len <= capacity
      && (n = 0 || len > 0)
      && (n = 0 || is_seq (n - 1) (List.nth evs (len - 1)))
      && (evs = []
         || fst
              (List.fold_left
                 (fun (ok, prev) (ev : Event.t) ->
                   ((ok && is_seq (prev + 1) ev), ev.Event.time))
                 (true, (List.hd evs).Event.time - 1)
                 evs)))

(* ---------- TLB: LRU eviction order matches a model ---------- *)

let prop_tlb_lru_model =
  qtest ~count:200 "TLB hits/misses match a reference LRU model"
    QCheck.(pair (int_range 1 8)
              (small_list (pair bool (int_bound 12))))
    (fun (capacity, ops) ->
      let tlb = Udma_mmu.Tlb.create ~capacity in
      (* model: vpns most-recently-used first *)
      let model = ref [] in
      List.for_all
        (fun (is_insert, vpn) ->
          if is_insert then begin
            let without = List.filter (( <> ) vpn) !model in
            let without =
              if List.length without >= capacity then
                (* drop the least recently used *)
                List.filteri (fun i _ -> i < capacity - 1) without
              else without
            in
            model := vpn :: without;
            Udma_mmu.Tlb.insert tlb vpn (Udma_mmu.Pte.make ~ppage:vpn ());
            true
          end
          else
            let model_hit = List.mem vpn !model in
            if model_hit then model := vpn :: List.filter (( <> ) vpn) !model;
            let tlb_hit = Udma_mmu.Tlb.lookup tlb vpn <> None in
            tlb_hit = model_hit)
        ops)

(* ---------- I3 policies agree on observable behaviour ---------- *)

let incoming_rig policy =
  let config =
    { M.default_config with M.mem_pages = 64; i3_policy = policy }
  in
  let m = M.create ~config () in
  let udma = Option.get m.M.udma in
  let port, store = Device.buffer "d" ~size:(16 * 4096) in
  Udma_engine.attach_device udma ~base_page:0 ~pages:16 ~port ();
  let proc = Scheduler.spawn m ~name:"p" in
  (match Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0 ~writable:true with
  | Ok () -> ()
  | Error _ -> failwith "grant");
  (m, proc, store)

let prop_i3_policies_equivalent_data =
  qtest ~count:20 "both I3 policies deliver identical incoming data"
    QCheck.(pair (int_range 4 4000) (int_bound 500))
    (fun (nbytes, seed) ->
      let nbytes = max 4 (nbytes land lnot 3) in
      let run policy =
        let m, proc, store = incoming_rig policy in
        Bytes.blit
          (Bytes.init nbytes (fun i -> Char.chr ((i + seed) land 0xff)))
          0 store 0 nbytes;
        let buf = Kernel.alloc_buffer m proc ~bytes:4096 in
        let cpu = Kernel.user_cpu m proc in
        match
          Initiator.transfer cpu ~layout:m.M.layout
            ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
            ~dst:(Initiator.Memory buf) ~nbytes ()
        with
        | Ok _ ->
            Engine.run_until_idle m.M.engine;
            Some (Kernel.read_user m proc ~vaddr:buf ~len:nbytes)
        | Error _ -> None
      in
      match (run M.Write_upgrade, run M.Proxy_dirty_union) with
      | Some a, Some b ->
          a = b
          && a = Bytes.init nbytes (fun i -> Char.chr ((i + seed) land 0xff))
      | _ -> false)

(* ---------- router: per-path delivery is in order ---------- *)

module Packet = Udma_shrimp.Packet
module Router = Udma_shrimp.Router

let prop_router_in_order =
  qtest ~count:50 "router never reorders packets on one path"
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 1 2000))
    (fun sizes ->
      let engine = Engine.create () in
      let r = Router.create ~engine ~nodes:4 () in
      let got = ref [] in
      Router.register r ~node_id:3 (fun p -> got := p.Packet.seq :: !got);
      List.iteri
        (fun i size ->
          Router.send r
            { Packet.src_node = 0; dst_node = 3; dst_paddr = 0;
              payload = Bytes.make size 'x'; seq = i })
        sizes;
      Engine.run_until_idle engine;
      List.rev !got = List.init (List.length sizes) Fun.id)

(* The router.mli in-order guarantee under the per-link FIFO model:
   many flows with random sizes and injection times, interleaved over
   shared mesh links, must still deliver each (src,dst) flow's packets
   in sequence order. Under dimension-order the fixed path makes this
   structural; under minimal-adaptive the packets of one flow may take
   different paths and the per-(src,dst) arrival clamp is the whole
   guarantee — so the same property is checked for both policies. *)
let prop_router_in_order_contended_with ?(vc_count = 1) ?(rx_credits = None)
    ?(crossing = `Analytic) ?(flit_words = 1) routing name =
  qtest ~count:50 name
    QCheck.(pair (int_bound 100_000) (int_range 10 120))
    (fun (seed, npackets) ->
      let engine = Engine.create () in
      let nodes = 9 in
      let r =
        Router.create ~engine ~nodes
          ~config:
            { Router.default_config with
              Router.link_contention = true;
              Router.routing = routing;
              Router.vc_count;
              Router.rx_credits;
              Router.crossing;
              Router.flit_words }
          ()
      in
      let delivered = Hashtbl.create 32 in
      for d = 0 to nodes - 1 do
        Router.register r ~node_id:d (fun p ->
            let key = (p.Packet.src_node, d) in
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt delivered key)
            in
            Hashtbl.replace delivered key (p.Packet.seq :: prev))
      done;
      let rng = Rng.create seed in
      let next_seq = Hashtbl.create 32 in
      let sent = Hashtbl.create 32 in
      for _ = 1 to npackets do
        let src = Rng.int rng nodes in
        let dst = (src + 1 + Rng.int rng (nodes - 1)) mod nodes in
        let key = (src, dst) in
        let seq = Option.value ~default:0 (Hashtbl.find_opt next_seq key) in
        Hashtbl.replace next_seq key (seq + 1);
        let size = 4 * (1 + Rng.int rng 500) in
        let time = Rng.int rng 2_000 in
        (* the in-order guarantee is per send-call order, so record the
           sequence as actually submitted at fire time *)
        Engine.schedule_at engine ~time (fun _ ->
            Hashtbl.replace sent key
              (seq :: Option.value ~default:[] (Hashtbl.find_opt sent key));
            Router.send r
              { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
                payload = Bytes.make size 'x'; seq })
      done;
      Engine.run_until_idle engine;
      Hashtbl.fold
        (fun key sent_seqs ok ->
          ok && Hashtbl.find_opt delivered key = Some sent_seqs)
        sent true)

let prop_router_in_order_contended =
  prop_router_in_order_contended_with `Dimension_order
    "contended router keeps every (src,dst) flow in order"

let prop_router_in_order_adaptive =
  prop_router_in_order_contended_with `Minimal_adaptive
    "adaptive router keeps every (src,dst) flow in order"

(* Virtual channels let packets of different flows interleave on one
   wire (cross-VC backfill), and finite credits delay claims until a
   deposit slot frees — neither may break the per-flow clamp. *)
let prop_router_in_order_vcs =
  prop_router_in_order_contended_with ~vc_count:4 `Dimension_order
    "4-VC router keeps every (src,dst) flow in order"

let prop_router_in_order_vcs_credits =
  prop_router_in_order_contended_with ~vc_count:4 ~rx_credits:(Some 2)
    `Minimal_adaptive
    "4-VC credited adaptive router keeps every flow in order"

(* The flit crossing must honour the same delivery contract as the
   analytic wire: every (src,dst) flow in submit order, under VC
   interleaving and finite flit credits alike. The degenerate case —
   flit_words so large every packet is a single flit — is wormhole
   with nothing to pipeline, and pins the flit arbiter to the analytic
   one-packet-per-wire behaviour. *)
let prop_router_in_order_flit =
  prop_router_in_order_contended_with ~vc_count:2 ~rx_credits:(Some 2)
    ~crossing:`Flit `Dimension_order
    "flit crossing keeps every (src,dst) flow in order"

let prop_router_in_order_flit_degenerate =
  prop_router_in_order_contended_with ~crossing:`Flit ~flit_words:1024
    `Dimension_order
    "one-flit worms (degenerate flit mode) keep every flow in order"

(* ---------- router: credit conservation at every cycle ---------- *)

(* N1 as a property: under random traffic, random link faults (dead
   links exercise the NACK/retry grant path) and a mid-run credit
   squeeze, every (link, VC) pool satisfies
   [held + in_flight + free = capacity] at every observed cycle, and
   once the mesh drains every slot is free again. *)
let prop_router_credit_conservation =
  qtest ~count:40 "credits conserved every cycle under faults + squeeze"
    QCheck.(pair (int_bound 100_000) (triple (int_range 1 4) (int_range 1 4) bool))
    (fun (seed, (vcs, credits, adaptive)) ->
      let engine = Engine.create () in
      let nodes = 9 in
      let routing = if adaptive then `Minimal_adaptive else `Dimension_order in
      let r =
        Router.create ~engine ~nodes
          ~config:
            { Router.default_config with
              Router.link_contention = true;
              Router.routing = routing;
              Router.vc_count = vcs;
              Router.rx_credits = Some credits }
          ()
      in
      for d = 0 to nodes - 1 do
        Router.register r ~node_id:d (fun _ -> ())
      done;
      let neighbours = ref [] in
      for a = 0 to nodes - 1 do
        for b = 0 to nodes - 1 do
          if a <> b && Router.hops r ~src:a ~dst:b = 1 then
            neighbours := (a, b) :: !neighbours
        done
      done;
      let neighbours = Array.of_list !neighbours in
      let rng = Rng.create seed in
      let horizon = 4_000 in
      for _ = 1 to 40 do
        let src = Rng.int rng nodes in
        let dst = (src + 1 + Rng.int rng (nodes - 1)) mod nodes in
        let size = 4 * (1 + Rng.int rng 300) in
        let time = Rng.int rng horizon in
        Engine.schedule_at engine ~time (fun _ ->
            Router.send r
              { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
                payload = Bytes.make size 'x'; seq = 0 })
      done;
      for _ = 1 to 6 do
        let from_node, to_node =
          neighbours.(Rng.int rng (Array.length neighbours))
        in
        let fault =
          if Rng.bool rng then Router.Link_dead
          else Router.Link_slow (1 + Rng.int rng 3)
        in
        let t_break = Rng.int rng horizon in
        Engine.schedule_at engine ~time:t_break (fun _ ->
            Router.set_link_fault r ~from_node ~to_node fault);
        Engine.schedule_at engine
          ~time:(t_break + 1 + Rng.int rng horizon)
          (fun _ -> Router.set_link_fault r ~from_node ~to_node Router.Link_ok)
      done;
      (* a mid-run squeeze and restore: conservation must survive the
         capacity resize itself *)
      let t_squeeze = Rng.int rng horizon in
      Engine.schedule_at engine ~time:t_squeeze (fun _ ->
          Router.set_rx_credits r (Some (1 + Rng.int rng 3)));
      Engine.schedule_at engine ~time:(t_squeeze + 1 + Rng.int rng horizon)
        (fun _ -> Router.set_rx_credits r (Some credits));
      let ok = ref true in
      let t = ref 0 in
      while !t < 6 * horizon do
        t := !t + 37;
        Engine.run_until engine !t;
        if Router.check_credits r <> None then ok := false
      done;
      Engine.run_until_idle engine;
      if Router.check_credits r <> None then ok := false;
      (* drained: nothing held, nothing in flight, every slot free *)
      List.iter
        (fun (c : Router.credit_stat) ->
          if
            c.Router.cr_held <> 0
            || c.Router.cr_inflight <> 0
            || c.Router.cr_free <> c.Router.cr_capacity
          then ok := false)
        (Router.credit_stats r);
      !ok)

(* ---------- router: flit-crossing pins ---------- *)

(* The analytic crossing must ignore the flit-only knobs: spelling out
   [`Analytic] and setting any [flit_words] takes the exact same code
   path, so arrivals are identical packet for packet. This is the pin
   that keeps every committed benchmark anchor byte-stable while the
   flit engine evolves. *)
let prop_analytic_ignores_flit_knobs =
  qtest ~count:30 "analytic arrivals identical under any flit_words"
    QCheck.(triple (int_bound 100_000) (int_range 10 60) (int_range 2 64))
    (fun (seed, npackets, flit_words) ->
      let run config =
        let engine = Engine.create () in
        let nodes = 9 in
        let r = Router.create ~engine ~nodes ~config () in
        let arrivals = ref [] in
        for d = 0 to nodes - 1 do
          Router.register r ~node_id:d (fun p ->
              arrivals :=
                (p.Packet.src_node, d, p.Packet.seq, Engine.now engine)
                :: !arrivals)
        done;
        let rng = Rng.create seed in
        for i = 1 to npackets do
          let src = Rng.int rng nodes in
          let dst = (src + 1 + Rng.int rng (nodes - 1)) mod nodes in
          let size = 4 * (1 + Rng.int rng 400) in
          let time = Rng.int rng 1_500 in
          Engine.schedule_at engine ~time (fun _ ->
              Router.send r
                { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
                  payload = Bytes.make size 'x'; seq = i })
        done;
        Engine.run_until_idle engine;
        !arrivals
      in
      let base =
        { Router.default_config with
          Router.link_contention = true;
          Router.vc_count = 2;
          Router.rx_credits = Some 2 }
      in
      run base = run { base with Router.crossing = `Analytic; flit_words })

(* F1 as a property: under random flit traffic — random VC counts,
   credit depths and flit sizes — flit conservation holds at random
   mid-run probe points and at quiescence, where the mesh must also be
   fully drained (delivered = injected, nothing buffered, all credits
   back). Probes piggyback on engine events, so they always observe a
   flit-cycle boundary, where the identity is claimed to hold. *)
let prop_flit_conservation =
  qtest ~count:40 "flit conservation at random probes and quiescence"
    QCheck.(pair (int_bound 100_000)
              (triple (int_range 1 4) (int_range 0 4) (int_range 1 8)))
    (fun (seed, (vcs, credits, flit_words)) ->
      let engine = Engine.create () in
      let nodes = 9 in
      let r =
        Router.create ~engine ~nodes
          ~config:
            { Router.default_config with
              Router.link_contention = true;
              Router.crossing = `Flit;
              Router.vc_count = vcs;
              Router.rx_credits = (if credits = 0 then None else Some credits);
              Router.flit_words }
          ()
      in
      for d = 0 to nodes - 1 do
        Router.register r ~node_id:d (fun _ -> ())
      done;
      let rng = Rng.create seed in
      let ok = ref true in
      let probe _ = if Router.check_flits r <> None then ok := false in
      for i = 1 to 60 do
        let src = Rng.int rng nodes in
        let dst = (src + 1 + Rng.int rng (nodes - 1)) mod nodes in
        let size = 4 * (1 + Rng.int rng 300) in
        Engine.schedule_at engine ~time:(Rng.int rng 2_000) (fun _ ->
            Router.send r
              { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
                payload = Bytes.make size 'x'; seq = i });
        Engine.schedule_at engine ~time:(Rng.int rng 8_000) probe
      done;
      Engine.run_until_idle engine;
      probe ();
      let injected, delivered, buffered = Router.flit_counts r in
      List.iter
        (fun (s : Router.flit_stat) ->
          if s.Router.fl_occ <> 0 || s.Router.fl_credits <> s.Router.fl_capacity
          then ok := false)
        (Router.flit_stats r);
      !ok && buffered = 0 && injected = delivered && injected > 0)

(* ---------- router: round-robin arbiter never starves ---------- *)

(* N2 as a property: against arbitrary competing ready sets, a VC that
   stays ready is granted within [vc_count] rounds when [rr] advances
   to just past each grant (the router's rule). Also: the arbiter only
   grants ready VCs and returns [None] exactly on an all-idle set. *)
let prop_arbiter_no_starvation =
  qtest ~count:300 "rr arbiter grants a persistent VC within vc_count rounds"
    QCheck.(triple (int_range 2 4) (int_bound 100_000) (int_range 1 60))
    (fun (n, seed, rounds) ->
      let rng = Rng.create seed in
      let target = Rng.int rng n in
      let rr = ref 0 in
      let streak = ref 0 in
      let ok = ref true in
      for _ = 1 to rounds do
        let ready = Array.init n (fun i -> i = target || Rng.bool rng) in
        (match Router.arbitrate ~rr:!rr ~ready with
        | None -> ok := false (* target was ready *)
        | Some g ->
            if not ready.(g) then ok := false;
            if g = target then streak := 0
            else begin
              incr streak;
              if !streak >= n then ok := false
            end;
            rr := (g + 1) mod n)
      done;
      !ok && Router.arbitrate ~rr:!rr ~ready:(Array.make n false) = None)

(* ---------- analytic: credit slots = naive argmin array ---------- *)

(* The credit slots of one (link, VC) pool against the plain model they
   replace: an unordered array whose claim scans for the slot that frees
   first and overwrites it, and whose resize sorts the free times latest
   first, keeping the first [n] or appending slots free at [now]. After
   every random claim (a release time around the front, or a leaked
   slot's [max_int / 2]) and every grow or shrink, the front and the
   multiset of free times agree. *)
module Slots = Udma_shrimp.Analytic.Slots

type slot_op = Claim of int | Leak | Resize of int * int

let prop_credit_slots_naive =
  let naive_front a = Array.fold_left Int.min max_int a in
  let naive_claim a v =
    let si = ref 0 in
    for i = 1 to Array.length a - 1 do
      if a.(i) < a.(!si) then si := i
    done;
    a.(!si) <- v
  in
  let naive_resize a ~now n =
    let old = Array.length a in
    let s = Array.copy a in
    Array.sort (fun x y -> Int.compare y x) s;
    if n > old then Array.append s (Array.make (n - old) now) else Array.sub s 0 n
  in
  let sorted a =
    let c = Array.copy a in
    Array.sort Int.compare c;
    c
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (12, map (fun d -> Claim d) (int_range (-40) 200));
          (1, return Leak);
          (2, map2 (fun n d -> Resize (n, d)) (int_range 1 9) (int_range (-40) 200));
        ])
  in
  let print_op = function
    | Claim d -> Printf.sprintf "claim(front%+d)" d
    | Leak -> "leak"
    | Resize (n, d) -> Printf.sprintf "resize(%d, now=front%+d)" n d
  in
  qtest ~count:300 "credit slots = naive argmin array"
    QCheck.(
      pair (int_range 1 9)
        (make ~print:(Print.list print_op) Gen.(list_size (1 -- 200) gen_op)))
    (fun (n, ops) ->
      let slots = ref (Array.make n 0) and naive = ref (Array.make n 0) in
      List.for_all
        (fun op ->
          let front = naive_front !naive in
          (match op with
          | Claim d ->
              Slots.take_insert !slots (front + d);
              naive_claim !naive (front + d)
          | Leak ->
              Slots.take_insert !slots (max_int / 2);
              naive_claim !naive (max_int / 2)
          | Resize (n, d) ->
              slots := Slots.resize !slots ~now:(front + d) n;
              naive := naive_resize !naive ~now:(front + d) n);
          Slots.front !slots = naive_front !naive && sorted !slots = sorted !naive)
        ops)

(* ---------- router: every produced path is a real mesh walk ---------- *)

(* The phantom-node regression, as a property: on every routable node
   count up to 64, for every (src,dst) and both policies (against
   randomly busied links, which is what steers adaptive), every hop is
   an in-range pair of mesh neighbours, the walk starts at src, ends
   at dst, and has exactly [hops] steps (minimal routing). *)
let prop_router_paths_valid =
  let valid_counts =
    List.filter Router.valid_nodes
      (List.init 63 (fun i -> i + 2) (* 2..64 *))
  in
  qtest ~count:60 "every path/route hop is one in-range mesh step"
    QCheck.(
      pair
        (oneofl ~print:string_of_int valid_counts)
        (pair (int_bound 100_000) (bool)))
    (fun (nodes, (seed, adaptive)) ->
      let engine = Engine.create () in
      let routing = if adaptive then `Minimal_adaptive else `Dimension_order in
      let r =
        Router.create ~engine ~nodes
          ~config:
            { Router.default_config with
              Router.link_contention = true;
              Router.routing = routing }
          ()
      in
      (* busy some links so adaptive has real choices to make *)
      (if adaptive then
         let rng = Rng.create seed in
         for d = 0 to nodes - 1 do
           Router.register r ~node_id:d (fun _ -> ())
         done;
         for _ = 1 to 1 + Rng.int rng 20 do
           let src = Rng.int rng nodes in
           let dst = (src + 1 + Rng.int rng (nodes - 1)) mod nodes in
           Router.send r
             { Packet.src_node = src; dst_node = dst; dst_paddr = 0;
               payload = Bytes.make (4 * (1 + Rng.int rng 500)) 'x'; seq = 0 }
         done);
      let in_range n = n >= 0 && n < nodes in
      let ok = ref true in
      for src = 0 to nodes - 1 do
        for dst = 0 to nodes - 1 do
          if src <> dst then
            List.iter
              (fun path ->
                let expected_len = Router.hops r ~src ~dst in
                ok :=
                  !ok
                  && List.length path = expected_len
                  && (match path with (a, _) :: _ -> a = src | [] -> false)
                  && (match List.rev path with
                     | (_, b) :: _ -> b = dst
                     | [] -> false)
                  && List.for_all
                       (fun (a, b) ->
                         in_range a && in_range b
                         && Router.hops r ~src:a ~dst:b = 1)
                       path
                  && (* consecutive hops chain *)
                  fst
                    (List.fold_left
                       (fun (chained, prev) (a, b) ->
                         (chained && (prev = None || prev = Some a), Some b))
                       (true, None) path))
              [ Router.path r ~src ~dst; Router.route r ~src ~dst ]
        done
      done;
      !ok)

(* ---------- automatic update: every write eventually visible ---------- *)

module System = Udma_shrimp.System

let prop_auto_update_complete =
  qtest ~count:15 "every snooped write is eventually visible remotely"
    QCheck.(pair (int_bound 1000) (int_range 1 40))
    (fun (seed, writes) ->
      let sys = System.create ~nodes:2 () in
      let snd = System.node sys 0 in
      let sp = Scheduler.spawn snd.System.machine ~name:"s" in
      let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"r" in
      let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
      let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
      Kernel.write_user snd.System.machine sp ~vaddr:buf (Bytes.make 4096 '\000');
      System.auto_bind sys ~node:0 ~proc:sp ~vaddr:buf export;
      let rng = Rng.create seed in
      let cpu = Kernel.user_cpu snd.System.machine sp in
      let expected = Hashtbl.create 16 in
      for i = 1 to writes do
        let off = Rng.int rng 1024 * 4 in
        Hashtbl.replace expected off (Int32.of_int i);
        cpu.Initiator.store ~vaddr:(buf + off) (Int32.of_int i)
      done;
      System.run_until_idle sys;
      Hashtbl.fold
        (fun off v ok ->
          ok
          && Bytes.get_int32_le
               (Kernel.read_user (System.node sys 1).System.machine rp
                  ~vaddr:(export.System.vaddr + off) ~len:4)
               0
             = v)
        expected true)

(* ---------- I2/I3 as machine-wide predicates under random ops ---------- *)

module Page_table = Udma_mmu.Page_table
module Pte = Udma_mmu.Pte
module Frame_allocator = Udma_memory.Frame_allocator

(* I2: every present proxy mapping points at the proxy of the frame the
   real mapping currently holds. I3 (write-upgrade policy): a writable
   proxy page implies a dirty real page. Checked over every process
   after every operation of a random workload. *)
let invariants_hold m =
  let layout = m.M.layout in
  let first_proxy = M.proxy_vpn m 0 in
  let dev_base = Layout.page_of_addr layout (Layout.dev_proxy_base layout) in
  List.for_all
    (fun proc ->
      List.for_all
        (fun (vpn, (pte : Pte.t)) ->
          if (not pte.Pte.present) || vpn < first_proxy || vpn >= dev_base then
            true
          else begin
            let real_vpn = vpn - first_proxy in
            match Page_table.find proc.Udma_os.Proc.page_table real_vpn with
            | Some real when real.Pte.present ->
                let i2 = pte.Pte.ppage = M.proxy_ppage m real.Pte.ppage in
                let i3 =
                  match m.M.i3_policy with
                  | M.Write_upgrade -> (not pte.Pte.writable) || real.Pte.dirty
                  | M.Proxy_dirty_union -> true
                in
                i2 && i3
            | Some _ | None -> false (* proxy outlived its real mapping *)
          end)
        (Page_table.entries proc.Udma_os.Proc.page_table))
    m.M.procs

let prop_invariants_under_random_ops =
  let policies = [| M.Write_upgrade; M.Proxy_dirty_union |] in
  qtest ~count:25 "I2/I3 hold after every op of a random workload"
    QCheck.(pair (int_bound 10_000) (int_bound 1))
    (fun (seed, policy_idx) ->
      let config =
        { M.default_config with
          M.mem_pages = 20;
          i3_policy = policies.(policy_idx) }
      in
      let m = M.create ~config () in
      let udma = Option.get m.M.udma in
      let port, store = Device.buffer "d" ~size:(8 * 4096) in
      Bytes.fill store 0 (Bytes.length store) 'd';
      Udma_engine.attach_device udma ~base_page:0 ~pages:8 ~port ();
      let proc = Scheduler.spawn m ~name:"p" in
      (match
         Syscall.map_device_proxy m proc ~vdev_index:0 ~pdev_index:0
           ~writable:true
       with
      | Ok () -> ()
      | Error _ -> failwith "grant");
      let rng = Rng.create seed in
      let cpu = Kernel.user_cpu m proc in
      let bufs = ref [] in
      let pick_buf () =
        match !bufs with
        | [] -> None
        | l -> Some (List.nth l (Rng.int rng (List.length l)))
      in
      let ok = ref true in
      for _ = 1 to 60 do
        (match Rng.int rng 7 with
        | 0 ->
            (* allocate a fresh page *)
            if List.length !bufs < 24 then
              bufs := Kernel.alloc_buffer m proc ~bytes:4096 :: !bufs
        | 1 -> (
            (* dirty a page with a user write *)
            match pick_buf () with
            | Some b -> cpu.Initiator.store ~vaddr:b 7l
            | None -> ())
        | 2 -> (
            (* outgoing transfer: page as source *)
            match pick_buf () with
            | Some b -> (
                match
                  Initiator.transfer cpu ~layout:m.M.layout
                    ~src:(Initiator.Memory b)
                    ~dst:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
                    ~nbytes:256 ()
                with
                | Ok _ -> ()
                | Error _ -> ok := false)
            | None -> ())
        | 3 -> (
            (* incoming transfer: page as destination (I3 path) *)
            match pick_buf () with
            | Some b -> (
                match
                  Initiator.transfer cpu ~layout:m.M.layout
                    ~src:(Initiator.Device (Kernel.vdev_addr m ~index:0 ~offset:0))
                    ~dst:(Initiator.Memory b) ~nbytes:256 ()
                with
                | Ok _ -> ()
                | Error _ -> ok := false)
            | None -> ())
        | 4 -> (
            (* pageout daemon: clean a page *)
            match pick_buf () with
            | Some b -> ignore (Vm.clean_page m proc ~vpn:(b / 4096))
            | None -> ())
        | 5 ->
            (* memory pressure: force an eviction if possible; the
               evicted frame is ours to return *)
            (try Frame_allocator.free m.M.alloc (Vm.evict_one m)
             with Vm.Out_of_memory -> ())
        | _ -> (
            (* read a page back (page-in path) *)
            match pick_buf () with
            | Some b -> ignore (Kernel.read_user m proc ~vaddr:b ~len:64)
            | None -> ()));
        Engine.run_until_idle m.M.engine;
        if not (invariants_hold m) then ok := false
      done;
      !ok)

(* ---------- protection backends: authorization at initiation time is
   terminal, and churn faults the next initiation deterministically.
   One parameterized generator drives all three backends. ---------- *)

module Backend = Udma_protect.Backend
module Tenants = Udma_protect.Tenants

let prop_backend_fault_determinism =
  qtest ~count:60
    "protection backends: initiation-time authorization terminal, churn \
     faults deterministic (proxy/iommu/capability)"
    QCheck.(
      triple (int_bound 2) (int_bound 100_000)
        (list_of_size (Gen.int_range 1 60) (int_bound 99)))
    (fun (k, seed, script) ->
      let kind = List.nth Backend.all_kinds k in
      let cfg =
        { Tenants.default_config with
          Tenants.kind; tenants = 6; slots = 4; seed }
      in
      let t = Tenants.create cfg in
      let rng = Rng.create (seed lxor 0x7e4a) in
      let ok = ref true in
      let tenant () = Rng.int rng 6 in
      (* random churn prefix: the property must hold from any state *)
      List.iter
        (fun op ->
          match op mod 6 with
          | 0 -> ignore (Tenants.attach t ~tenant:(tenant ()))
          | 1 -> ignore (Tenants.send t ~tenant:(tenant ()))
          | 2 -> Tenants.deschedule t ~tenant:(tenant ())
          | 3 -> ignore (Tenants.evict_slot t ~slot:(Rng.int rng 4))
          | 4 -> ignore (Tenants.revoke_tenant t ~tenant:(tenant ()))
          | _ ->
              (* a rogue probe is denied on every backend, every time *)
              if not (Tenants.rogue_probe t ~rogue:9999 ~slot:(Rng.int rng 4))
              then ok := false)
        script;
      (* the I5 oracle finds nothing on an unmutated backend *)
      if Backend.check (Tenants.backend t) <> None then ok := false;
      let x = tenant () in
      (* a descheduled tenant's next initiation faults Invalidated *)
      Tenants.deschedule t ~tenant:x;
      (match Tenants.initiate t ~tenant:x with
      | Error (Tenants.Invalidated, _) -> ()
      | Ok _ | Error _ -> ok := false);
      (* once granted, initiation succeeds — and an Ok is terminal:
         the transfer is done, nothing can fault it mid-flight *)
      ignore (Tenants.attach t ~tenant:x);
      (match Tenants.initiate t ~tenant:x with
      | Ok _ -> ()
      | Error _ -> ok := false);
      (* a revoked tenant's next initiation faults in the backend *)
      ignore (Tenants.revoke_tenant t ~tenant:x);
      (match Tenants.initiate t ~tenant:x with
      | Error (Tenants.Backend_fault _, _) -> ()
      | Ok _ | Error (Tenants.Invalidated, _) -> ok := false);
      (* an evicted tenant's next initiation faults in the backend *)
      ignore (Tenants.attach t ~tenant:x);
      (match Tenants.initiate t ~tenant:x with
      | Ok _ -> ()
      | Error _ -> ok := false);
      for slot = 0 to 3 do
        ignore (Tenants.evict_slot t ~slot)
      done;
      (match Tenants.initiate t ~tenant:x with
      | Error (Tenants.Backend_fault _, _) -> ()
      | Ok _ | Error (Tenants.Invalidated, _) -> ok := false);
      !ok)

let () =
  Alcotest.run "udma_props"
    [
      ( "structures",
        [
          prop_eventq_sorted;
          prop_eventq_tagged_model;
          prop_phys_mem_model;
          prop_status_roundtrip;
          prop_layout_proxy_bijection;
          prop_rng_in_bounds;
          prop_trace_wraparound;
          prop_tlb_lru_model;
          prop_arbiter_no_starvation;
          prop_credit_slots_naive;
        ] );
      ( "state-machine",
        [ prop_sm_transferring_only_via_start; prop_sm_inval_resets ] );
      ( "end-to-end",
        [
          prop_random_transfers_exact;
          prop_unaligned_offsets_exact;
          prop_paging_preserves_data;
          prop_i1_random_preemption;
          prop_queued_random_exact;
          prop_queued_refcounts_drain;
          prop_router_in_order;
          prop_router_in_order_contended;
          prop_router_in_order_adaptive;
          prop_router_in_order_vcs;
          prop_router_in_order_vcs_credits;
          prop_router_in_order_flit;
          prop_router_in_order_flit_degenerate;
          prop_analytic_ignores_flit_knobs;
          prop_flit_conservation;
          prop_router_credit_conservation;
          prop_router_paths_valid;
          prop_i3_policies_equivalent_data;
          prop_auto_update_complete;
          prop_invariants_under_random_ops;
          prop_backend_fault_determinism;
        ] );
    ]
