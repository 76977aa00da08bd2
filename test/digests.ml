(* Output digests, so a change to any simulated number names what it
   moved.

     digests.exe DOC.json                 one MD5 per experiment of a
                                          udma-bench/1 document (e.g.
                                          [shrimp_sim all --quick --json])
     digests.exe --streams FILE...        one MD5 per whole file (e.g. a
                                          [--trace] JSONL event stream)

   Either form prints "<id> <md5>" lines; with [--check GOLDEN] in
   front it compares them against GOLDEN instead and exits 1 on any
   difference.

   Host-dependent fields are masked before hashing: E17's wall-clock
   row fields ([wall_ms], [events_per_sec], [speedup]) and its
   [host_cores] meta field. Each experiment hashes as its compact
   re-rendering, so the digest is independent of indentation. Event
   streams hold no host-dependent field and hash byte for byte. *)

module Json = Udma_obs.Json

let masked_row_fields = [ "wall_ms"; "events_per_sec"; "speedup" ]
let masked_meta_fields = [ "host_cores" ]

let mask keys = function
  | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> (k, if List.mem k keys then Json.Null else v)) fields)
  | v -> v

let mask_experiment = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "rows" -> (k, Json.List (List.map (mask masked_row_fields) (Json.to_list v)))
             | "meta" -> (k, mask masked_meta_fields v)
             | _ -> (k, v))
           fields)
  | v -> v

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let digests path =
  match Json.of_file path with
  | Error e -> fail "digests: %s" e
  | Ok doc ->
      let exps = Option.fold ~none:[] ~some:Json.to_list (Json.member "experiments" doc) in
      if exps = [] then fail "digests: %s has no experiments" path;
      List.map
        (fun e ->
          let id = Option.bind (Json.member "id" e) Json.string_ in
          ( Option.value id ~default:"?",
            Digest.to_hex (Digest.string (Json.to_string (mask_experiment e))) ))
        exps

let read_golden path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> fail "digests: %s" e
  | text ->
      String.split_on_char '\n' text
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ id; md5 ] -> Some (id, md5)
             | _ -> None)

let stream_digests paths =
  List.map
    (fun path ->
      match Digest.file path with
      | exception Sys_error e -> fail "digests: %s" e
      | d -> (Filename.basename path, Digest.to_hex d))
    paths

let check golden ~what got =
  let want = read_golden golden in
  let ids l = List.map fst l in
  let bad = ref 0 in
  if ids want <> ids got then begin
    incr bad;
    Printf.printf "%s list differs: golden [%s], got [%s]\n" what
      (String.concat " " (ids want)) (String.concat " " (ids got))
  end;
  List.iter
    (fun (id, md5) ->
      match List.assoc_opt id want with
      | Some m when m = md5 -> ()
      | Some m ->
          incr bad;
          Printf.printf "%s: digest %s, golden %s\n" id md5 m
      | None -> ())
    got;
  if !bad > 0 then begin
    Printf.printf "%d difference(s) against %s\n" !bad golden;
    exit 1
  end;
  Printf.printf "%d %s digests match %s\n" (List.length got) what golden

let print = List.iter (fun (id, md5) -> Printf.printf "%s %s\n" id md5)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ doc ] -> print (digests doc)
  | "--streams" :: (_ :: _ as files) -> print (stream_digests files)
  | [ "--check"; golden; doc ] -> check golden ~what:"experiment" (digests doc)
  | "--check" :: golden :: "--streams" :: (_ :: _ as files) ->
      check golden ~what:"stream" (stream_digests files)
  | _ -> fail "usage: digests.exe [--check GOLDEN] (DOC.json | --streams FILE...)"
