module Engine = Udma_sim.Engine
module Report = Udma_obs.Report
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Syscall = Udma_os.Syscall
module System = Udma_shrimp.System

type experiment = {
  exp_name : string;
  exp_alias : string;
  exp_doc : string;
  exp_run : (quick:bool -> seed:int -> Report.t list) Param.args;
  exp_anchors : Report.anchor list;
}

let anchor name report select field = { Report.name; report; select; field }

type probe = { mutable engines : Engine.t list }

let probe () = { engines = [] }

let watch p engine =
  if not (List.memq engine p.engines) then p.engines <- engine :: p.engines

let breakdown p =
  List.fold_left
    (fun acc e -> Udma_obs.Profiler.add_totals acc (Engine.profile e))
    Udma_obs.Profiler.zero p.engines

let vi n = Report.Int n
let vf x = Report.Float x
let vs x = Report.Str x
let vb x = Report.Bool x
let v_opt v none = function Some x -> v x | None -> vs none

let positive n =
  if n < 1 then Some (Printf.sprintf "must be >= 1, not %d" n) else None

let all_positive = List.find_map positive

let within lo hi n =
  if n < lo || n > hi then Some (Printf.sprintf "must be in %d..%d, not %d" lo hi n)
  else None

let ok_or_fail pp = function
  | Ok x -> x
  | Error e -> failwith (Format.asprintf "%a" pp e)

let pattern_buffer m proc ~bytes fill =
  let buf = Udma_os.Kernel.alloc_buffer m proc ~bytes in
  Udma_os.Kernel.write_user m proc ~vaddr:buf
    (Bytes.init fill (fun i -> Char.chr (i land 0xff)));
  buf

let buffer_rig ?(mode = Udma_engine.Basic) ?(mem_pages = 128)
    ?(i3_policy = M.default_config.M.i3_policy) p =
  let config =
    { M.default_config with M.udma_mode = Some mode; mem_pages; i3_policy }
  in
  let m = M.create ~config () in
  watch p m.M.engine;
  let udma = Option.get m.M.udma in
  let pages = config.M.dev_pages in
  let port, _ = Udma_dma.Device.buffer "dev" ~size:(pages * config.M.page_size) in
  Udma_engine.attach_device udma ~base_page:0 ~pages ~port ();
  (m, udma, port)

let grant_dev m proc ~pages =
  for i = 0 to pages - 1 do
    ok_or_fail Syscall.pp_error
      (Syscall.map_device_proxy m proc ~vdev_index:i ~pdev_index:i ~writable:true)
  done

let node_pair ?(mode = Udma_engine.Basic) p =
  let machine = { M.default_config with M.udma_mode = Some mode } in
  let sys = System.create ~config:{ System.default_config with machine } ~nodes:2 () in
  watch p (System.engine sys);
  let snd = System.node sys 0 and rcv = System.node sys 1 in
  let sender = Scheduler.spawn snd.System.machine ~name:"s" in
  (sys, snd, sender, rcv, Scheduler.spawn rcv.System.machine ~name:"r")

let cost_row costs label cycles =
  [
    ("label", vs label);
    ("cycles", vi cycles);
    ("us", vf (Udma_os.Cost_model.us_of_cycles costs cycles));
  ]

let cost_columns = [ ("label", "path"); ("cycles", "cycles"); ("us", "us") ]
