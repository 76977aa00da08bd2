type t = {
  mutable present : bool;
  mutable writable : bool;
  mutable dirty : bool;
  mutable referenced : bool;
  mutable ppage : int;
}

let make ?(writable = true) ~ppage () =
  { present = true; writable; dirty = false; referenced = false; ppage }
