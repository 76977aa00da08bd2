(** Minimal JSON values, emitter and parser.

    The container image has no Yojson, so the observability layer
    carries its own ~200-line JSON module: enough to emit experiment
    reports and to read them back for the CI anchor check. The parser
    accepts exactly the subset the emitter produces (plus arbitrary
    whitespace), which is all we ever need to read. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** [to_string v] renders [v]. With [indent] (spaces per level) the
    output is pretty-printed; without it the output is compact. Floats
    render with enough digits to round-trip; NaN/infinity render as
    [null] (JSON has no spelling for them). *)

val parse : string -> (t, string) result
(** [parse s] reads one JSON value (surrounding whitespace allowed).
    Numbers without [.], [e] or [E] parse as [Int]. Returns
    [Error msg] with a character offset on malformed input. *)

val of_file : string -> (t, string) result
(** [of_file path] reads and parses the whole file. A missing or
    unreadable file and malformed contents all give [Error msg], with
    [msg] naming the file. *)

(** {1 Accessors} — tolerant lookups for reading reports back. *)

val member : string -> t -> t option
(** [member k v] is field [k] of object [v], if present. *)

val path : string list -> t -> t option
(** [path ks v] follows a chain of object fields. *)

val to_list : t -> t list
(** Elements of a [List]; [[]] for anything else. *)

val number : t -> float option
(** [Int] or [Float] as a float. *)

val string_ : t -> string option
