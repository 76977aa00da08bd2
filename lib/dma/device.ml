type port = {
  name : string;
  sink_buffer : len:int -> bytes;
  dev_write : addr:int -> bytes -> unit;
  dev_read : addr:int -> len:int -> bytes;
  access_cycles : addr:int -> len:int -> int;
  writable : addr:int -> bool;
  readable : addr:int -> bool;
}

let fresh_buffer ~len = Bytes.create len

let null name =
  {
    name;
    sink_buffer = fresh_buffer;
    dev_write = (fun ~addr:_ _ -> ());
    dev_read = (fun ~addr:_ ~len -> Bytes.make len '\000');
    access_cycles = (fun ~addr:_ ~len:_ -> 0);
    writable = (fun ~addr:_ -> true);
    readable = (fun ~addr:_ -> true);
  }

let buffer name ~size =
  if size <= 0 then invalid_arg "Device.buffer: size must be positive";
  let store = Bytes.make size '\000' in
  let check addr len what =
    if addr < 0 || len < 0 || addr + len > size then
      invalid_arg
        (Printf.sprintf "Device.buffer(%s).%s: [%#x,+%d) out of range" name
           what addr len)
  in
  let port =
    {
      name;
      sink_buffer = fresh_buffer;
      dev_write =
        (fun ~addr b ->
          check addr (Bytes.length b) "dev_write";
          Bytes.blit b 0 store addr (Bytes.length b));
      dev_read =
        (fun ~addr ~len ->
          check addr len "dev_read";
          Bytes.sub store addr len);
      access_cycles = (fun ~addr:_ ~len:_ -> 0);
      writable = (fun ~addr -> addr >= 0 && addr < size);
      readable = (fun ~addr -> addr >= 0 && addr < size);
    }
  in
  (port, store)
