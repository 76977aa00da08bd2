module Engine = Udma_sim.Engine
module Metrics = Udma_obs.Metrics
module Layout = Udma_mmu.Layout
module Page_table = Udma_mmu.Page_table
module Pte = Udma_mmu.Pte
module Phys_mem = Udma_memory.Phys_mem
module Dma_engine = Udma_dma.Dma_engine
module Udma_engine = Udma.Udma_engine
module M = Machine

type direction = To_device | From_device

type strategy = Pin_user_pages | Copy_through_buffer

type error = Bad_address | Bad_size | Device_error of string

let pp_error ppf = function
  | Bad_address -> Format.pp_print_string ppf "bad address"
  | Bad_size -> Format.pp_print_string ppf "bad size"
  | Device_error s -> Format.fprintf ppf "device error: %s" s

(* Split [vaddr, vaddr+nbytes) at page boundaries. *)
let page_pieces layout ~vaddr ~nbytes =
  let page_size = Layout.page_size layout in
  let rec go addr remaining acc =
    if remaining <= 0 then List.rev acc
    else
      let room = page_size - Layout.offset_in_page layout addr in
      let piece = Int.min room remaining in
      go (addr + piece) (remaining - piece) ((addr, piece) :: acc)
  in
  go vaddr nbytes []

let resident_frame m proc ~vpn =
  match Page_table.find proc.Proc.page_table vpn with
  | Some pte when pte.Pte.present -> Some pte.Pte.ppage
  | Some _ -> Some (Vm.page_in m proc ~vpn)
  | None -> None

(* Start one DMA piece and block until the hardware is done. The
   descriptor-chain model: the kernel pays [dma_start] once per system
   call and one [interrupt] at the end; per-piece turnaround is
   hardware-side and already inside the burst timing. *)
let run_piece m ~src ~dst ~nbytes =
  let finished = ref false in
  match
    Dma_engine.submit m.M.dma
      [ { Udma_dma.Descriptor.src; dst; len = nbytes } ]
      ~on_complete:(fun () -> finished := true)
  with
  | Error e -> Error (Device_error (Format.asprintf "%a" Dma_engine.pp_error e))
  | Ok () ->
      ignore (Engine.wait_for m.M.engine ~poll_cost:1 (fun () -> !finished));
      Ok ()

let rec first_error = function
  | [] -> Ok ()
  | Ok () :: rest -> first_error rest
  | (Error _ as e) :: _ -> e

(* The §2 sequence with user pages pinned in place. *)
let transfer_pinned m proc ~dir ~vaddr ~nbytes ~port ~dev_addr =
  let layout = m.M.layout in
  let pieces = page_pieces layout ~vaddr ~nbytes in
  (* step 2: translate, verify, pin, build descriptors *)
  let resolved =
    List.map
      (fun (addr, len) ->
        Machine.charge m m.M.costs.Cost_model.translate_page;
        let vpn = Layout.page_of_addr layout addr in
        match resident_frame m proc ~vpn with
        | None -> Error Bad_address
        | Some _ ->
            let frame = Vm.pin m proc ~vpn in
            let paddr =
              Phys_mem.frame_base m.M.mem frame
              + Layout.offset_in_page layout addr
            in
            Ok (vpn, frame, paddr, len))
      pieces
  in
  let ok_pieces = List.filter_map Result.to_option resolved in
  let unpin_all () =
    List.iter (fun (_, frame, _, _) -> Vm.unpin m ~frame) ok_pieces
  in
  if List.length ok_pieces <> List.length pieces then begin
    unpin_all ();
    Error Bad_address
  end
  else begin
    Machine.charge m m.M.costs.Cost_model.descriptor_build;
    Machine.charge m m.M.costs.Cost_model.dma_start;
    (* step 3: the transfers; the device address advances with the data *)
    let _, results =
      List.fold_left
        (fun (dev_off, acc) (vpn, _frame, paddr, len) ->
          let r =
            match dir with
            | To_device ->
                run_piece m ~src:(Dma_engine.Mem paddr)
                  ~dst:(Dma_engine.Dev (port, dev_addr + dev_off)) ~nbytes:len
            | From_device ->
                let r =
                  run_piece m
                    ~src:(Dma_engine.Dev (port, dev_addr + dev_off))
                    ~dst:(Dma_engine.Mem paddr) ~nbytes:len
                in
                (* the kernel knows about the incoming data: mark dirty *)
                (match Page_table.find proc.Proc.page_table vpn with
                | Some pte -> pte.Pte.dirty <- true
                | None -> ());
                r
          in
          (dev_off + len, r :: acc))
        (0, []) ok_pieces
    in
    (* step 4: completion interrupt, unpin and return *)
    Machine.charge m m.M.costs.Cost_model.interrupt;
    unpin_all ();
    first_error (List.rev results)
  end

(* Copy through one reserved, permanently pinned kernel frame. *)
let bounce_frame = 1

let transfer_bounce m proc ~dir ~vaddr ~nbytes ~port ~dev_addr =
  let layout = m.M.layout in
  let page_size = Layout.page_size layout in
  let bounce_base = Phys_mem.frame_base m.M.mem bounce_frame in
  let rec chunks off acc =
    if off >= nbytes then List.rev acc
    else
      let len = Int.min page_size (nbytes - off) in
      chunks (off + len) ((off, len) :: acc)
  in
  let copy_user_chunk ~off ~len ~to_bounce =
    (* the kernel walks the user pages under the chunk *)
    let pieces = page_pieces layout ~vaddr:(vaddr + off) ~nbytes:len in
    let results =
      List.map
        (fun (addr, piece_len) ->
          Machine.charge m m.M.costs.Cost_model.translate_page;
          let vpn = Layout.page_of_addr layout addr in
          match resident_frame m proc ~vpn with
          | None -> Error Bad_address
          | Some frame ->
              let paddr =
                Phys_mem.frame_base m.M.mem frame
                + Layout.offset_in_page layout addr
              in
              let boff = bounce_base + (addr - (vaddr + off)) in
              Machine.charge m (Cost_model.copy_cycles m.M.costs piece_len);
              if to_bounce then
                Phys_mem.blit m.M.mem ~src:paddr ~dst:boff ~len:piece_len
              else begin
                Phys_mem.blit m.M.mem ~src:boff ~dst:paddr ~len:piece_len;
                match Page_table.find proc.Proc.page_table vpn with
                | Some pte -> pte.Pte.dirty <- true
                | None -> ()
              end;
              Ok ())
        pieces
    in
    first_error results
  in
  Machine.charge m m.M.costs.Cost_model.dma_start;
  let results =
    List.map
      (fun (off, len) ->
        Machine.charge m m.M.costs.Cost_model.descriptor_build;
        match dir with
        | To_device -> (
            match copy_user_chunk ~off ~len ~to_bounce:true with
            | Error _ as e -> e
            | Ok () ->
                run_piece m ~src:(Dma_engine.Mem bounce_base)
                  ~dst:(Dma_engine.Dev (port, dev_addr + off)) ~nbytes:len)
        | From_device -> (
            match
              run_piece m
                ~src:(Dma_engine.Dev (port, dev_addr + off))
                ~dst:(Dma_engine.Mem bounce_base) ~nbytes:len
            with
            | Error _ as e -> e
            | Ok () -> copy_user_chunk ~off ~len ~to_bounce:false))
      (chunks 0 [])
  in
  Machine.charge m m.M.costs.Cost_model.interrupt;
  first_error results

let dma_transfer m proc ~dir ~vaddr ~nbytes ~port ~dev_addr ~strategy =
  if nbytes <= 0 then Error Bad_size
  else begin
    let start = Engine.now m.M.engine in
    (* step 1: the system call itself *)
    Machine.charge m m.M.costs.Cost_model.syscall;
    Metrics.bump m.M.os.M.syscall_dma;
    let result =
      match strategy with
      | Pin_user_pages ->
          transfer_pinned m proc ~dir ~vaddr ~nbytes ~port ~dev_addr
      | Copy_through_buffer ->
          transfer_bounce m proc ~dir ~vaddr ~nbytes ~port ~dev_addr
    in
    match result with
    | Ok () -> Ok (Engine.now m.M.engine - start)
    | Error _ as e -> e
  end

let map_device_proxy m proc ~vdev_index ~pdev_index ~writable =
  Machine.charge m m.M.costs.Cost_model.syscall;
  Metrics.bump m.M.os.M.syscall_map_device_proxy;
  match Vm.map_device_proxy m proc ~vdev_index ~pdev_index ~writable with
  | () -> Ok ()
  | exception Invalid_argument _ -> Error Bad_address

let udma_enqueue_system m ~src_proxy ~dest_proxy ~nbytes =
  Machine.charge m m.M.costs.Cost_model.syscall;
  match m.M.udma with
  | None -> Error (Device_error "no UDMA engine")
  | Some u -> (
      match Udma_engine.enqueue_system u ~src_proxy ~dest_proxy ~nbytes with
      | Ok () -> Ok ()
      | Error `Full -> Error (Device_error "queue full")
      | Error `Rejected -> Error Bad_address)
