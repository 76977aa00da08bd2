module Rng = Udma_sim.Rng

type t =
  | Poisson of { per_kcycle : float }
  | Periodic of { per_kcycle : float }
  | Closed of { clients : int; think_cycles : int }

let open_loop = function Poisson _ | Periodic _ -> true | Closed _ -> false

let validate = function
  | Poisson { per_kcycle } | Periodic { per_kcycle } ->
      if per_kcycle > 0.0 then Ok ()
      else Error "Arrival: an open loop needs a rate > 0"
  | Closed { clients; _ } ->
      if clients >= 1 then Ok ()
      else Error "Arrival: a closed loop needs clients >= 1"

let check_rate what per_kcycle =
  if not (per_kcycle > 0.0) then
    invalid_arg (Printf.sprintf "Arrival.%s: rate must be positive" what)

let next_gap t rng =
  match t with
  | Poisson { per_kcycle } ->
      check_rate "next_gap" per_kcycle;
      (* exponential inter-arrival, mean 1000/rate cycles; clamped to at
         least one cycle so a chain of arrivals always advances time *)
      let u = Rng.float rng 1.0 in
      let mean = 1000.0 /. per_kcycle in
      max 1 (int_of_float (Float.round (-.mean *. log (1.0 -. u))))
  | Periodic { per_kcycle } ->
      check_rate "next_gap" per_kcycle;
      max 1 (int_of_float (Float.round (1000.0 /. per_kcycle)))
  | Closed _ -> invalid_arg "Arrival.next_gap: closed-loop has no rate"

let to_string = function
  | Poisson { per_kcycle } -> Printf.sprintf "poisson(%.3f/kcyc)" per_kcycle
  | Periodic { per_kcycle } -> Printf.sprintf "periodic(%.3f/kcyc)" per_kcycle
  | Closed { clients; think_cycles } ->
      Printf.sprintf "closed(%d clients, think %d)" clients think_cycles
