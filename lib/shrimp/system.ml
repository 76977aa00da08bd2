module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module M = Udma_os.Machine
module Vm = Udma_os.Vm
module Syscall = Udma_os.Syscall
module Kernel = Udma_os.Kernel
module Cost_model = Udma_os.Cost_model
module Backend = Udma_protect.Backend

type node = { id : int; machine : M.t; ni : Network_interface.t; auto : Auto_update.t }

type config = {
  machine : M.config;
  router : Router.config;
  ni : Network_interface.config;
}

let default_config =
  {
    machine = M.default_config;
    router = Router.default_config;
    ni = Network_interface.default_config;
  }

type t = {
  engine : Engine.t;
  router : Router.t;
  pool : Payload_pool.t;
  nodes : node array;
}

let create ?(config = default_config) ~nodes () =
  if nodes <= 0 then invalid_arg "System.create: nodes must be positive";
  (match config.machine.M.udma_mode with
  | None -> invalid_arg "System.create: nodes need a UDMA engine"
  | Some _ -> ());
  let engine =
    Engine.create ~mhz:config.machine.M.costs.Cost_model.mhz ()
  in
  let router = Router.create ~engine ~nodes ~config:config.router () in
  (* one pool for all the nodes' payloads: a packet's buffer is taken
     on the sender and returned on the receiver *)
  let pool = Payload_pool.create () in
  let make_node id =
    let machine =
      M.create
        ~config:{ config.machine with M.shared_engine = Some engine }
        ()
    in
    let ni = Network_interface.create ~id ~machine ~config:config.ni ~pool () in
    Network_interface.set_router ni router;
    Network_interface.attach ni;
    Router.register router ~node_id:id (Network_interface.receive ni);
    { id; machine; ni; auto = Auto_update.create ~machine ~ni () }
  in
  { engine; router; pool; nodes = Array.init nodes make_node }

let engine t = t.engine
let pool t = t.pool
let router t = t.router
let node_count t = Array.length t.nodes

let node t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "System.node: %d out of range" i);
  t.nodes.(i)

let run_until_idle t = Engine.run_until_idle t.engine

type export = {
  exp_node : int;
  exp_pid : int;
  vaddr : int;
  frames : int list;
}

let export_buffer t ~node:node_id ~proc ~pages =
  let n = node t node_id in
  let m = n.machine in
  let page_size = Layout.page_size m.M.layout in
  let vaddr = Kernel.alloc_buffer m proc ~bytes:(pages * page_size) in
  let vpn0 = vaddr / page_size in
  let frames =
    List.init pages (fun i -> Vm.pin m proc ~vpn:(vpn0 + i))
  in
  { exp_node = node_id; exp_pid = proc.Udma_os.Proc.pid; vaddr; frames }

let import_export t ~node:node_id ~proc ~first_index export =
  let n = node t node_id in
  let backend = Network_interface.backend n.ni in
  List.iteri
    (fun i frame ->
      let index = first_index + i in
      ignore
        (Backend.grant backend ~owner:proc.Udma_os.Proc.pid ~index
           ~dst_node:export.exp_node ~dst_frame:frame);
      match
        Syscall.map_device_proxy n.machine proc ~vdev_index:index
          ~pdev_index:index ~writable:true
      with
      | Ok () -> ()
      | Error e ->
          invalid_arg
            (Format.asprintf "System.import_export: grant failed (%a)"
               Syscall.pp_error e))
    export.frames

let release_export t export =
  let n = node t export.exp_node in
  List.iter (fun frame -> Vm.unpin n.machine ~frame) export.frames

let auto_bind t ~node:node_id ~proc ~vaddr export =
  let n = node t node_id in
  let page_size = Layout.page_size n.machine.M.layout in
  if vaddr land (page_size - 1) <> 0 then
    invalid_arg "System.auto_bind: vaddr must be page-aligned";
  let vpn0 = vaddr / page_size in
  List.iteri
    (fun i dst_frame ->
      match Vm.frame_of_vpn n.machine proc ~vpn:(vpn0 + i) with
      | Some frame ->
          Auto_update.bind n.auto ~frame ~dst_node:export.exp_node ~dst_frame
      | None -> invalid_arg "System.auto_bind: source page not resident")
    export.frames
