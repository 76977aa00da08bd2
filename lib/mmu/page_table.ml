type t = (int, Pte.t) Hashtbl.t

let create () : t = Hashtbl.create 256

let find t vpn = Hashtbl.find_opt t vpn

let set t vpn pte = Hashtbl.replace t vpn pte

let remove t vpn = Hashtbl.remove t vpn

let entries t =
  Hashtbl.fold (fun vpn pte acc -> (vpn, pte) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mapped_count t = Hashtbl.length t
