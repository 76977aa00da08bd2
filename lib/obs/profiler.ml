type category = User_ref | Kernel | Dma | Wire | Device | Idle

let categories = [ User_ref; Kernel; Dma; Wire; Device; Idle ]

let category_name = function
  | User_ref -> "user_ref"
  | Kernel -> "kernel"
  | Dma -> "dma"
  | Wire -> "wire"
  | Device -> "device"
  | Idle -> "idle"

let index = function
  | User_ref -> 0
  | Kernel -> 1
  | Dma -> 2
  | Wire -> 3
  | Device -> 4
  | Idle -> 5

let n_categories = 6

type t = { cycles : int array; mutable current : category }

let create () = { cycles = Array.make n_categories 0; current = Idle }

let current t = t.current

let set_current t cat = t.current <- cat

let[@inline] charge t ?cat n =
  if n < 0 then invalid_arg "Profiler.charge: negative cycles";
  let cat = Option.value cat ~default:t.current in
  let i = index cat in
  t.cycles.(i) <- t.cycles.(i) + n

let total t cat = t.cycles.(index cat)

type totals = int array

let snapshot t = Array.copy t.cycles

let zero = Array.make n_categories 0

let add_totals a b = Array.init n_categories (fun i -> a.(i) + b.(i))

let to_list totals =
  List.map (fun c -> (category_name c, totals.(index c))) categories

let sum totals = Array.fold_left ( + ) 0 totals

let to_json totals =
  Json.Obj
    (List.map (fun (name, c) -> (name, Json.Int c)) (to_list totals)
    @ [ ("total", Json.Int (sum totals)) ])
