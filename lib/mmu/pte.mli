(** Page-table entry.

    One entry maps a virtual page to a physical page anywhere in the
    physical space (real memory, memory proxy, or device proxy; the
    region is determined by the physical page number and the layout).
    The bits mirror what the UDMA paper's OS support needs: [present],
    [writable], [dirty], [referenced]. *)

type t = {
  mutable present : bool;
  mutable writable : bool;
  mutable dirty : bool;
  mutable referenced : bool;
  mutable ppage : int;  (** physical page number; meaningful when present *)
}

val make : ?writable:bool -> ppage:int -> unit -> t
(** A present, clean, unreferenced entry ([writable] defaults [true]). *)
