type geometry = {
  blocks : int;
  block_size : int;
  seek_base_cycles : int;
  seek_per_block_cycles : int;
  transfer_cycles_per_block : int;
}

let default_geometry =
  {
    blocks = 1024;
    block_size = 4096;
    seek_base_cycles = 2000;
    seek_per_block_cycles = 4;
    transfer_cycles_per_block = 500;
  }

type t = {
  geometry : geometry;
  store : Bytes.t;
  mutable head : int;
  mutable seeks : int;
}

let create ?(geometry = default_geometry) () =
  if geometry.blocks <= 0 || geometry.block_size <= 0 then
    invalid_arg "Disk.create: bad geometry";
  {
    geometry;
    store = Bytes.make (geometry.blocks * geometry.block_size) '\000';
    head = 0;
    seeks = 0;
  }

let geometry t = t.geometry
let size_bytes t = Bytes.length t.store

let check t addr len what =
  if addr < 0 || len < 0 || addr + len > size_bytes t then
    invalid_arg (Printf.sprintf "Disk.%s: [%#x,+%d) out of range" what addr len)

(* Seek to the first block of the access, then stream. *)
let access_cycles t ~addr ~len =
  let g = t.geometry in
  let first = addr / g.block_size in
  let last = (addr + Int.max 1 len - 1) / g.block_size in
  let distance = abs (first - t.head) in
  if distance > 0 then t.seeks <- t.seeks + 1;
  t.head <- last;
  g.seek_base_cycles
  + (distance * g.seek_per_block_cycles)
  + ((last - first + 1) * g.transfer_cycles_per_block)

let port t =
  Udma_dma.Device.
    {
      name = "disk";
      sink_buffer = Udma_dma.Device.fresh_buffer;
      dev_write =
        (fun ~addr b ->
          check t addr (Bytes.length b) "dev_write";
          Bytes.blit b 0 t.store addr (Bytes.length b));
      dev_read =
        (fun ~addr ~len ->
          check t addr len "dev_read";
          Bytes.sub t.store addr len);
      access_cycles = (fun ~addr ~len -> access_cycles t ~addr ~len);
      writable = (fun ~addr -> addr >= 0 && addr < size_bytes t);
      readable = (fun ~addr -> addr >= 0 && addr < size_bytes t);
    }

let pages t ~page_size = (size_bytes t + page_size - 1) / page_size

let read_block t b =
  let g = t.geometry in
  if b < 0 || b >= g.blocks then invalid_arg "Disk.read_block: out of range";
  Bytes.sub t.store (b * g.block_size) g.block_size

let write_block t b data =
  let g = t.geometry in
  if b < 0 || b >= g.blocks then invalid_arg "Disk.write_block: out of range";
  if Bytes.length data <> g.block_size then
    invalid_arg "Disk.write_block: wrong block size";
  Bytes.blit data 0 t.store (b * g.block_size) g.block_size

let head_position t = t.head
let seeks t = t.seeks
