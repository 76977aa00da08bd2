(* Per-experiment output digests: one MD5 per experiment of a
   udma-bench/1 document (e.g. [shrimp_sim all --quick --json]), so a
   change to any simulated number names the experiment it moved.

     digests.exe DOC.json                 print "<id> <md5>" lines
     digests.exe --check GOLDEN DOC.json  compare against GOLDEN; exit 1
                                          on any difference

   Host-dependent fields are masked before hashing: E17's wall-clock
   row fields ([wall_ms], [events_per_sec], [speedup]) and its
   [host_cores] meta field. Each experiment hashes as its compact
   re-rendering, so the digest is independent of indentation. *)

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

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ doc ] -> List.iter (fun (id, md5) -> Printf.printf "%s %s\n" id md5) (digests doc)
  | [ "--check"; golden; doc ] ->
      let want = read_golden golden and got = digests doc in
      let ids l = List.map fst l in
      let bad = ref 0 in
      if ids want <> ids got then begin
        incr bad;
        Printf.printf "experiment list differs: golden [%s], got [%s]\n"
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
        Printf.printf "%s: %d difference(s) against %s\n" doc !bad golden;
        exit 1
      end;
      Printf.printf "%s: %d experiment digests match %s\n" doc (List.length got) golden
  | _ -> fail "usage: digests.exe [--check GOLDEN] DOC.json"
