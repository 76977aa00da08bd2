type t = {
  src_node : int;
  dst_node : int;
  dst_paddr : int;
  payload : bytes;
  seq : int;
}

let header_bytes = 16

let size_bytes t = Bytes.length t.payload + header_bytes
