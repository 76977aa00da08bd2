type entry = { vpn : int; pte : Pte.t; mutable stamp : int }

type t = {
  capacity : int;
  mutable entries : entry list; (* unordered, length <= capacity *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  { capacity; entries = []; tick = 0; hits = 0; misses = 0 }

let rec entry vpn = function
  | [] -> raise Not_found
  | e :: rest -> if e.vpn = vpn then e else entry vpn rest

let find t vpn =
  match entry vpn t.entries with
  | e ->
      t.tick <- t.tick + 1;
      e.stamp <- t.tick;
      t.hits <- t.hits + 1;
      e.pte
  | exception Not_found ->
      t.misses <- t.misses + 1;
      raise Not_found

let rehit t vpn k =
  match entry vpn t.entries with
  | e when e.pte.Pte.present ->
      t.tick <- t.tick + k;
      e.stamp <- t.tick;
      t.hits <- t.hits + k;
      true
  | _ -> false
  | exception Not_found -> false

let lookup t vpn =
  match find t vpn with pte -> Some pte | exception Not_found -> None

let insert t vpn pte =
  t.tick <- t.tick + 1;
  let without = List.filter (fun e -> e.vpn <> vpn) t.entries in
  let without =
    if List.length without >= t.capacity then
      (* Evict the least recently used entry. *)
      let lru =
        List.fold_left
          (fun acc e ->
            match acc with
            | None -> Some e
            | Some best -> if e.stamp < best.stamp then Some e else acc)
          None without
      in
      match lru with
      | Some victim -> List.filter (fun e -> e != victim) without
      | None -> without
    else without
  in
  t.entries <- { vpn; pte; stamp = t.tick } :: without

let flush_page t vpn = t.entries <- List.filter (fun e -> e.vpn <> vpn) t.entries

let flush_all t = t.entries <- []

let hits t = t.hits
let misses t = t.misses
