(** Typed experiment parameters.

    An experiment declares each of its knobs once — the command-line
    flag, its documentation, the full-run default and the value the
    small deterministic [--quick] run uses — and combines them with the
    [let+ ... and+ ...] operators into the function that runs it.
    [Runner.all_reports] resolves the declarations to their defaults
    or quick values ({!resolve}); [bin/shrimp_sim.exe] turns the same
    declarations into command-line options. This library does not
    depend on any command-line parser. *)

(** How a value reads from and prints to the command line. *)
type _ kind =
  | Int : int kind
  | Float : float kind
  | Flag : bool kind  (** a switch: present means [true] *)
  | List : 'a kind -> 'a list kind  (** comma-separated *)
  | Option : 'a kind -> 'a option kind  (** absent by default *)
  | Enum : (string * 'a) list -> 'a kind
  | Parsed : (string -> ('a, string) result) * ('a -> string) -> 'a kind

type 'a t = {
  flag : string;  (** long option name, without the dashes *)
  docv : string;
  doc : string;
  kind : 'a kind;
  default : 'a;
  quick : 'a;
  check : 'a -> string option;
      (** [Some msg] rejects a value the kind parses but the
          experiment cannot run, e.g. ["5 is not a page multiple"] *)
}

(** A computation over declared parameters. *)
type _ args =
  | Pure : 'a -> 'a args
  | Param : 'a t -> 'a args
  | Map : ('a -> 'b) * 'a args -> 'b args
  | Both : 'a args * 'b args -> ('a * 'b) args

val v :
  ?docv:string ->
  ?quick:'a ->
  ?check:('a -> string option) ->
  string ->
  'a kind ->
  doc:string ->
  'a ->
  'a args
(** [v flag kind ~doc default] declares one parameter; [quick]
    defaults to [default]. *)

val const : 'a -> 'a args
val ( let+ ) : 'a args -> ('a -> 'b) -> 'b args
val ( and+ ) : 'a args -> 'b args -> ('a * 'b) args

val resolve : quick:bool -> 'a args -> 'a
(** Every parameter at its quick value or its default. Parameters are
    read left to right, in declaration order. *)
