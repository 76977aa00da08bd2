type hist = {
  edges : int array;  (* strictly increasing upper edges *)
  counts : int array; (* length = Array.length edges + 1; last = overflow *)
  mutable n : int;
  mutable total : int;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable generation : int;  (* bumped by [reset]; stales every handle *)
  mutable hooks : (unit -> unit) list;  (* [on_read] flushes, in order *)
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    generation = 0;
    hooks = [];
  }

(* Hot paths that count in plain fields publish through their handles
   here, so every reader below sees what eager bumps would have made. *)
let on_read t flush = t.hooks <- t.hooks @ [ flush ]
let flush t = List.iter (fun f -> f ()) t.hooks

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = Stdlib.incr (counter_ref t name)

let add t name n =
  let r = counter_ref t name in
  r := !r + n

let set t name v = counter_ref t name := v

let get t name =
  flush t;
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* A handle caches the counter's cell after its first bump, so a hot
   path pays one integer compare instead of a string-keyed lookup. It
   resolves lazily (an unbumped handle creates nothing) and again after
   a [reset], which is what [c_gen] tracks. *)
type counter = {
  c_reg : t;
  c_name : string;
  mutable c_gen : int;
  mutable c_cell : int ref;
}

let counter t name = { c_reg = t; c_name = name; c_gen = -1; c_cell = ref 0 }

let cell c =
  if c.c_gen <> c.c_reg.generation then begin
    c.c_cell <- counter_ref c.c_reg c.c_name;
    c.c_gen <- c.c_reg.generation
  end;
  c.c_cell

let bump c = Stdlib.incr (cell c)

let bump_by c n =
  let r = cell c in
  r := !r + n

let read c = get c.c_reg c.c_name

let counters t =
  flush t;
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges name (ref v)

let gauge t name = Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

let gauges t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let default_buckets =
  [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384;
    32768; 65536 ]

let make_hist buckets =
  let edges = Array.of_list buckets in
  if Array.length edges = 0 then
    invalid_arg "Metrics.observe: empty bucket list";
  Array.iteri
    (fun i e ->
      if i > 0 && e <= edges.(i - 1) then
        invalid_arg "Metrics.observe: bucket edges must be strictly increasing")
    edges;
  { edges; counts = Array.make (Array.length edges + 1) 0; n = 0; total = 0 }

let hist_ref t ?(buckets = default_buckets) name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = make_hist buckets in
      Hashtbl.add t.hists name h;
      h

(* First bucket whose upper edge >= v; overflow slot otherwise. *)
let bucket_index h v =
  let n = Array.length h.edges in
  if v > h.edges.(n - 1) then n
  else begin
    (* a loop, not a local recursive function: a closure over [h]
       would be allocated on every sample *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if h.edges.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

let record_n h v n =
  let i = bucket_index h v in
  h.counts.(i) <- h.counts.(i) + n;
  h.n <- h.n + n;
  h.total <- h.total + (v * n)

let observe t ?buckets name v = record_n (hist_ref t ?buckets name) v 1

(* The histogram counterpart of [counter]. *)
type sampler = {
  s_reg : t;
  s_name : string;
  s_buckets : int list option;
  mutable s_gen : int;
  mutable s_hist : hist option;
}

let sampler t ?buckets name =
  { s_reg = t; s_name = name; s_buckets = buckets; s_gen = -1; s_hist = None }

let sample_n s v n =
  if n > 0 then
    match s.s_hist with
    | Some h when s.s_gen = s.s_reg.generation -> record_n h v n
    | Some _ | None ->
        let h = hist_ref s.s_reg ?buckets:s.s_buckets s.s_name in
        s.s_hist <- Some h;
        s.s_gen <- s.s_reg.generation;
        record_n h v n

let sample s v = sample_n s v 1

type histogram = {
  buckets : (int * int) list;
  overflow : int;
  count : int;
  sum : int;
}

let snapshot_hist h =
  let n = Array.length h.edges in
  {
    buckets = List.init n (fun i -> (h.edges.(i), h.counts.(i)));
    overflow = h.counts.(n);
    count = h.n;
    sum = h.total;
  }

let histogram t name =
  flush t;
  Option.map snapshot_hist (Hashtbl.find_opt t.hists name)

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let percentile (h : histogram) p =
  if p <= 0.0 || p > 100.0 then
    invalid_arg "Metrics.percentile: p must be in (0, 100]";
  if h.count = 0 then None
  else
    (* smallest upper edge covering p% of the observations; an
       overflow-bucket hit reports one past the last edge *)
    let need =
      int_of_float (ceil (p /. 100.0 *. float_of_int h.count))
    in
    let rec go acc = function
      | (edge, c) :: rest ->
          let acc = acc + c in
          if acc >= need then Some edge else go acc rest
      | [] -> (
          match List.rev h.buckets with
          | (last, _) :: _ -> Some (last + 1)
          | [] -> None)
    in
    go 0 h.buckets

let histograms t =
  flush t;
  Hashtbl.fold (fun name h acc -> (name, snapshot_hist h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_json (h : histogram) =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Int h.sum);
      ( "buckets",
        Json.Obj
          (List.map
             (fun (edge, c) -> ("le_" ^ string_of_int edge, Json.Int c))
             h.buckets) );
      ("overflow", Json.Int h.overflow);
    ]

let to_json t =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges t)) );
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) (histograms t)) );
    ]

let reset t =
  flush t;
  t.generation <- t.generation + 1;
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.hists
