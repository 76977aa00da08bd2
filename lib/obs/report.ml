type value = Int of int | Float of float | Str of string | Bool of bool

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

type row = (string * value) list

type t = {
  id : string;
  title : string;
  meta : (string * value) list;
  columns : (string * string) list;
  rows : row list;
  breakdown : Profiler.totals option;
}

let make ~id ~title ?(meta = []) ~columns ?breakdown rows =
  { id; title; meta; columns; rows; breakdown }

let cell_text = function
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e9 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.2f" f
  | Str s -> s
  | Bool b -> if b then "yes" else "no"

let right_aligned = function Int _ | Float _ -> true | Str _ | Bool _ -> false

let print ?(oc = stdout) t =
  let p fmt = Printf.fprintf oc fmt in
  p "\n=== %s ===\n" t.title;
  if t.meta <> [] then begin
    let pairs =
      List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (cell_text v)) t.meta
    in
    p "  %s\n" (String.concat "  " pairs)
  end;
  let cells row =
    List.map
      (fun (field, _header) ->
        match List.assoc_opt field row with
        | Some v -> (cell_text v, right_aligned v)
        | None -> ("-", false))
      (t.columns : (string * string) list)
  in
  let header = List.map snd t.columns in
  let body = List.map cells t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> Int.max w (String.length (fst (List.nth row i))))
          (String.length h) body)
      header
  in
  let pad s w right =
    let gap = String.make (Int.max 0 (w - String.length s)) ' ' in
    if right then gap ^ s else s ^ gap
  in
  p "  %s\n"
    (String.concat "  " (List.map2 (fun h w -> pad h w false) header widths));
  List.iter
    (fun row ->
      p "  %s\n"
        (String.concat "  "
           (List.map2 (fun (s, right) w -> pad s w right) row widths)))
    body;
  (match t.breakdown with
  | None -> ()
  | Some totals ->
      let total = Profiler.sum totals in
      let parts =
        List.filter_map
          (fun (name, c) ->
            if c = 0 then None
            else
              Some
                (Printf.sprintf "%s %d (%.1f%%)" name c
                   (100.0 *. float_of_int c /. float_of_int (Int.max 1 total))))
          (Profiler.to_list totals)
      in
      p "  cycles: %d  [%s]\n" total (String.concat ", " parts));
  flush oc

let row_json row = Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) row)

let to_json t =
  let base =
    [
      ("id", Json.Str t.id);
      ("title", Json.Str t.title);
      ("meta", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) t.meta));
      ("rows", Json.List (List.map row_json t.rows));
    ]
  in
  let breakdown =
    match t.breakdown with
    | None -> []
    | Some totals -> [ ("breakdown", Profiler.to_json totals) ]
  in
  Json.Obj (base @ breakdown)

let schema_version = "udma-bench/1"

let bench_json ?(meta = []) reports =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("meta", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) meta));
      ("experiments", Json.List (List.map to_json reports));
    ]

(* ---------- anchors ---------- *)

type selector = Meta | Row of (string * string) list

type anchor = { name : string; report : string; select : selector; field : string }

(* a selector value names a string field verbatim, a number by value *)
let field_is v s =
  match v with
  | Json.Str x -> x = s
  | v -> (
      match (Json.number v, float_of_string_opt s) with
      | Some a, Some b -> a = b
      | _ -> false)

let anchor_value doc a =
  let experiment =
    List.find_opt
      (fun e -> Json.member "id" e = Some (Json.Str a.report))
      (Json.to_list (Option.value ~default:Json.Null (Json.member "experiments" doc)))
  in
  let holder =
    Option.bind experiment (fun e ->
        match a.select with
        | Meta -> Json.member "meta" e
        | Row pairs ->
            List.find_opt
              (fun row ->
                List.for_all
                  (fun (k, s) ->
                    match Json.member k row with
                    | Some v -> field_is v s
                    | None -> false)
                  pairs)
              (Json.to_list (Option.value ~default:Json.Null (Json.member "rows" e))))
  in
  Option.bind holder (fun h -> Option.bind (Json.member a.field h) Json.number)

let check ~tolerance anchors ~baseline current =
  let verdict a =
    match (anchor_value baseline a, anchor_value current a) with
    | Some base, Some cur ->
        let drift =
          if base = 0.0 then Float.abs cur
          else Float.abs (cur -. base) /. Float.abs base
        in
        let ok = drift <= tolerance in
        ( ok,
          Printf.sprintf "%-28s baseline %12.6g  current %12.6g  drift %5.1f%%  %s"
            a.name base cur (100.0 *. drift)
            (if ok then "ok" else "DRIFT") )
    | None, _ -> (false, Printf.sprintf "%-28s missing from baseline file" a.name)
    | Some _, None -> (false, Printf.sprintf "%-28s missing from current run" a.name)
  in
  let verdicts = List.map verdict anchors in
  let lines = List.map snd verdicts in
  if List.for_all fst verdicts then Ok lines else Error lines
