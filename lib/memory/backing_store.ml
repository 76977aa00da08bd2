type slot = int

type t = {
  page_size : int;
  table : (int, bytes) Hashtbl.t;
  mutable next : int;
}

let create ~page_size =
  if page_size <= 0 then
    invalid_arg "Backing_store.create: page_size must be positive";
  { page_size; table = Hashtbl.create 64; next = 0 }

let slots_used t = Hashtbl.length t.table

let check_size t page what =
  if Bytes.length page <> t.page_size then
    invalid_arg
      (Printf.sprintf "Backing_store.%s: expected %d bytes, got %d" what
         t.page_size (Bytes.length page))

let store t page =
  check_size t page "store";
  let s = t.next in
  t.next <- t.next + 1;
  Hashtbl.replace t.table s (Bytes.copy page);
  s

let find t s what =
  match Hashtbl.find_opt t.table s with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Backing_store.%s: slot %d not present" what s)

let overwrite t s page =
  check_size t page "overwrite";
  ignore (find t s "overwrite");
  Hashtbl.replace t.table s (Bytes.copy page)

let load t s = Bytes.copy (find t s "load")

let release t s =
  ignore (find t s "release");
  Hashtbl.remove t.table s
