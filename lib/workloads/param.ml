type _ kind =
  | Int : int kind
  | Float : float kind
  | Flag : bool kind
  | List : 'a kind -> 'a list kind
  | Option : 'a kind -> 'a option kind
  | Enum : (string * 'a) list -> 'a kind
  | Parsed : (string -> ('a, string) result) * ('a -> string) -> 'a kind

type 'a t = {
  flag : string;
  docv : string;
  doc : string;
  kind : 'a kind;
  default : 'a;
  quick : 'a;
  check : 'a -> string option;
}

type _ args =
  | Pure : 'a -> 'a args
  | Param : 'a t -> 'a args
  | Map : ('a -> 'b) * 'a args -> 'b args
  | Both : 'a args * 'b args -> ('a * 'b) args

let v ?(docv = "") ?quick ?(check = fun _ -> None) flag kind ~doc default =
  let quick = Option.value quick ~default in
  Param { flag; docv; doc; kind; default; quick; check }

let const x = Pure x
let ( let+ ) a f = Map (f, a)
let ( and+ ) a b = Both (a, b)

let rec resolve : type a. quick:bool -> a args -> a =
 fun ~quick -> function
  | Pure x -> x
  | Param p -> if quick then p.quick else p.default
  | Map (f, a) -> f (resolve ~quick a)
  | Both (a, b) ->
      let x = resolve ~quick a in
      (x, resolve ~quick b)
