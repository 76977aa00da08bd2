module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Bus = Udma_dma.Bus
module M = Udma_os.Machine

type config = { combine_bytes : int; flush_window : int }

let default_config = { combine_bytes = 64; flush_window = 200 }

type binding = { dst_node : int; dst_frame : int }

type run = {
  frame : int;
  binding : binding;
  start_offset : int;
  data : Buffer.t;
  mutable last_write : int;
}

type t = {
  machine : M.t;
  ni : Network_interface.t;
  config : config;
  bindings : (int, binding) Hashtbl.t; (* frame -> destination *)
  mutable pending : run option;
  mutable checker_armed : bool;
  mutable updates_sent : int;
  mutable words_combined : int;
}

let page_size t = Layout.page_size t.machine.M.layout

let flush t =
  match t.pending with
  | None -> ()
  | Some run ->
      t.pending <- None;
      t.updates_sent <- t.updates_sent + 1;
      Network_interface.send_raw t.ni ~dst_node:run.binding.dst_node
        ~dst_paddr:((run.binding.dst_frame * page_size t) + run.start_offset)
        (Buffer.to_bytes run.data)

(* Flush the run if no write has touched it for a quiet window;
   otherwise re-arm. *)
let rec arm_checker t =
  if not t.checker_armed then begin
    t.checker_armed <- true;
    Engine.schedule t.machine.M.engine ~delay:t.config.flush_window (fun _ ->
        t.checker_armed <- false;
        match t.pending with
        | Some run ->
            if
              Engine.now t.machine.M.engine - run.last_write
              >= t.config.flush_window
            then flush t
            else arm_checker t
        | None -> ())
  end

let snoop t ~paddr v =
  let frame = paddr / page_size t in
  let offset = paddr mod page_size t in
  let extend_current () =
    match t.pending with
    | Some run
      when run.frame = frame
           && offset = run.start_offset + Buffer.length run.data
           && Buffer.length run.data + 4 <= t.config.combine_bytes ->
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 v;
        Buffer.add_bytes run.data b;
        run.last_write <- Engine.now t.machine.M.engine;
        t.words_combined <- t.words_combined + 1;
        true
    | Some _ | None -> false
  in
  match Hashtbl.find_opt t.bindings frame with
  | None -> ()
  | Some binding ->
      if not (extend_current ()) then begin
        flush t;
        let data = Buffer.create t.config.combine_bytes in
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 v;
        Buffer.add_bytes data b;
        t.pending <-
          Some
            {
              frame;
              binding;
              start_offset = offset;
              data;
              last_write = Engine.now t.machine.M.engine;
            };
        arm_checker t
      end

let create ~machine ~ni ?(config = default_config) () =
  if config.combine_bytes < 4 || config.combine_bytes land 3 <> 0 then
    invalid_arg "Auto_update.create: combine_bytes must be a positive word multiple";
  let t =
    {
      machine;
      ni;
      config;
      bindings = Hashtbl.create 16;
      pending = None;
      checker_armed = false;
      updates_sent = 0;
      words_combined = 0;
    }
  in
  Bus.add_snoop machine.M.bus (fun ~paddr v -> snoop t ~paddr v);
  t

let bind t ~frame ~dst_node ~dst_frame =
  if Hashtbl.mem t.bindings frame then
    invalid_arg "Auto_update.bind: frame already bound";
  Hashtbl.replace t.bindings frame { dst_node; dst_frame }

let unbind t ~frame =
  (match t.pending with
  | Some run when run.frame = frame -> flush t
  | Some _ | None -> ());
  Hashtbl.remove t.bindings frame

let updates_sent t = t.updates_sent
let words_combined t = t.words_combined
