module Report = Udma_obs.Report
module Initiator = Udma.Initiator
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Kernel = Udma_os.Kernel
open Experiment

(* ------------------------------------------------------------------ *)
(* E15: bandwidth vs transfer shape                                    *)
(* ------------------------------------------------------------------ *)

(* [Shape_strided f] reads 64 bytes every [64 * f] source bytes and
   packs them densely at the destination; [Shape_sg n] scatters [n]
   destination elements across the whole transfer, each within its
   initiation's device page. Both go through shaped initiations
   ({!Initiator.start_shaped}). *)
type shape_case = Shape_contig | Shape_strided of int | Shape_sg of int

let shape_label = function
  | Shape_contig -> "contig"
  | Shape_strided f -> Printf.sprintf "stride%d" f
  | Shape_sg n -> Printf.sprintf "sg%d" n

(* One shape at one hardware mode: move [total] bytes to the device
   and return the end-to-end user cycles. Strided shapes re-read the
   first source page (the cost model does not depend on the data);
   scatter-gather shapes split the destination of each page-sized
   initiation into elements scattered in reverse order within its
   device page, so every element stays inside one page — the shape the
   per-element clamp admits whole. *)
let run_shape ~mode ~total shape p =
  let m, _udma, _ = buffer_rig ~mode p in
  let proc = Udma_os.Scheduler.spawn m ~name:"p" in
  let page_size = Udma_mmu.Layout.page_size m.M.layout in
  grant_dev m proc ~pages:((total + page_size - 1) / page_size);
  let buf = pattern_buffer m proc ~bytes:total total in
  let cpu = Kernel.user_cpu m proc in
  let layout = m.M.layout in
  let dev off =
    Initiator.Device
      (Kernel.vdev_addr m ~index:(off / page_size) ~offset:(off mod page_size))
  in
  let ok r = ignore (ok_or_fail Initiator.pp_error r) in
  let whole queued =
    let call = if queued then Initiator.transfer_queued else Initiator.transfer in
    ok (call cpu ~layout ~src:(Initiator.Memory buf) ~dst:(dev 0) ~nbytes:total ())
  in
  (* warm every mapping the measured run touches *)
  whole false;
  Udma_sim.Engine.run_until_idle m.M.engine;
  let queued =
    match mode with Udma_engine.Basic -> false | Udma_engine.Queued _ -> true
  in
  let start = cpu.Initiator.now () in
  (match shape with
  | Shape_contig -> whole queued
  | Shape_strided _ | Shape_sg _ ->
      let inits =
        match shape with
        | Shape_contig -> assert false
        | Shape_strided f ->
            (* chunk 64 every 64f bytes: each initiation's source span
               is exactly one page, the destination packs densely *)
            let chunk = 64 in
            let bytes_per_init = page_size / f in
            List.init (total / bytes_per_init) (fun k ->
                ( Initiator.Memory buf,
                  dev (k * bytes_per_init),
                  Initiator.Strided_shape { stride = chunk * f; chunk },
                  bytes_per_init ))
        | Shape_sg n ->
            let inits_n = total / page_size in
            let per_init = Int.max 1 (n / inits_n) in
            let len = page_size / per_init in
            List.init inits_n (fun k ->
                let base = k * page_size in
                let extra =
                  List.init (per_init - 1) (fun j ->
                      (dev (base + ((per_init - 2 - j) * len)), len))
                in
                ( Initiator.Memory (buf + base),
                  dev (base + ((per_init - 1) * len)),
                  Initiator.Gather_shape extra,
                  page_size ))
      in
      let await probe = ok (Initiator.await cpu ~probe ()) in
      let last =
        List.fold_left
          (fun _ (src, dst, shape, nbytes) ->
            let _, probe =
              ok_or_fail Initiator.pp_error
                (Initiator.start_shaped cpu ~layout ~queued ~src ~dst ~shape
                   ~nbytes ())
            in
            if not queued then await probe;
            Some probe)
          None inits
      in
      Option.iter await last);
  let cycles = cpu.Initiator.now () - start in
  Udma_sim.Engine.run_until_idle m.M.engine;
  cycles

let shapes_total =
  Param.v "total" Int ~docv:"BYTES"
    ~doc:"Total bytes moved per shape (a page multiple)."
    ~check:(fun t ->
      if t <= 0 || t mod 4096 <> 0 then
        Some (Printf.sprintf "%d is not a positive page multiple" t)
      else None)
    8192

let shapes_kinds =
  Param.v "shape"
    (List (Enum [ ("contig", `Contig); ("strided", `Strided); ("sg", `Sg) ]))
    ~docv:"KINDS"
    ~doc:
      "Shape families to sweep: comma-separated subset of $(b,contig), \
       $(b,strided) and $(b,sg)."
    [ `Contig; `Strided; `Sg ]

let shapes_strides =
  Param.v "stride" (List Int) ~docv:"FACTORS"
    ~doc:
      "Stride factors for the strided family (the source reads 64 bytes \
       every 64*FACTOR; each factor must divide 64)."
    ~check:
      (List.find_map (fun f ->
           if f <= 0 || 64 mod f <> 0 then
             Some (Printf.sprintf "factor %d does not divide 64" f)
           else None))
    ~quick:[ 4; 64 ] [ 2; 4; 8; 16; 32; 64 ]

let shapes_sg_elems =
  Param.v "sg-elems" (List Int) ~docv:"COUNTS"
    ~doc:
      "Scatter-gather element counts across the whole transfer (each must \
       be twice a power-of-two divisor of the page size)."
    ~check:
      (List.find_map (fun n ->
           if n < 2 || n mod 2 <> 0 || 4096 mod (n / 2) <> 0 then
             Some (Printf.sprintf "%d is not twice a divisor of the page" n)
           else None))
    ~quick:[ 4; 256 ] [ 2; 4; 16; 64; 256 ]

let shape_cases =
  Param.(
    let+ kinds = shapes_kinds
    and+ strides = shapes_strides
    and+ sg_elems = shapes_sg_elems in
    List.concat_map
      (function
        | `Contig -> [ Shape_contig ]
        | `Strided -> List.map (fun f -> Shape_strided f) strides
        | `Sg -> List.map (fun n -> Shape_sg n) sg_elems)
      kinds)

let report_shapes ~total ~cases =
  let p = probe () in
  let queued_mode = Udma_engine.Queued { depth = 8 } in
  let basic_contig = run_shape ~mode:Udma_engine.Basic ~total Shape_contig p in
  let queued_contig = run_shape ~mode:queued_mode ~total Shape_contig p in
  let rows =
    List.map
      (fun shape ->
        let b, q =
          match shape with
          | Shape_contig -> (basic_contig, queued_contig)
          | _ ->
              ( run_shape ~mode:Udma_engine.Basic ~total shape p,
                run_shape ~mode:queued_mode ~total shape p )
        in
        [
          ("shape", vs (shape_label shape));
          ("basic_cycles", vi b);
          ("queued_cycles", vi q);
          ("basic_bpc", vf (float_of_int total /. float_of_int b));
          ("queued_bpc", vf (float_of_int total /. float_of_int q));
          ("basic_pct", vf (100.0 *. float_of_int basic_contig /. float_of_int b));
          ( "queued_pct",
            vf (100.0 *. float_of_int queued_contig /. float_of_int q) );
        ])
      cases
  in
  Report.make ~id:"e15_shapes"
    ~title:
      (Printf.sprintf
         "E15: bandwidth vs transfer shape at %d total bytes (descriptor \
          overhead)"
         total)
    ~meta:[ ("total_bytes", vi total) ]
    ~columns:
      [
        ("shape", "shape");
        ("basic_cycles", "basic");
        ("queued_cycles", "queued");
        ("basic_bpc", "B/cyc basic");
        ("queued_bpc", "B/cyc queued");
        ("basic_pct", "% of contig (basic)");
        ("queued_pct", "% of contig (queued)");
      ]
    ~breakdown:(breakdown p) rows

let e15 =
  {
    exp_name = "shapes";
    exp_alias = "e15";
    exp_doc =
      "E15: bandwidth vs transfer shape — contiguous vs strided vs \
       scatter-gather at equal total bytes.";
    exp_run =
      Param.(
        let+ total = shapes_total and+ cases = shape_cases in
        fun ~quick:_ ~seed:_ -> [ report_shapes ~total ~cases ]);
    exp_anchors =
      List.map
        (fun (field, shape) ->
          anchor (Printf.sprintf "e15.%s@%s.basic" field shape) "e15_shapes"
            (Report.Row [ ("shape", shape) ]) ("basic_" ^ field))
        [ ("bpc", "contig"); ("bpc", "sg256"); ("pct", "sg256") ];
  }
