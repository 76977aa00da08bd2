type t = { width : int; height : int; pixels : Bytes.t }

let bytes_per_pixel = 4

let create ~width ~height =
  if width <= 0 || height <= 0 then
    invalid_arg "Frame_buffer.create: dimensions must be positive";
  { width; height; pixels = Bytes.make (width * height * bytes_per_pixel) '\000' }

let size_bytes t = Bytes.length t.pixels

let port t =
  let size = size_bytes t in
  let check addr len what =
    if addr < 0 || len < 0 || addr + len > size then
      invalid_arg (Printf.sprintf "Frame_buffer.%s: [%#x,+%d)" what addr len)
  in
  Udma_dma.Device.
    {
      name = "framebuffer";
      sink_buffer = Udma_dma.Device.fresh_buffer;
      dev_write =
        (fun ~addr b ->
          check addr (Bytes.length b) "dev_write";
          Bytes.blit b 0 t.pixels addr (Bytes.length b));
      dev_read =
        (fun ~addr ~len ->
          check addr len "dev_read";
          Bytes.sub t.pixels addr len);
      access_cycles = (fun ~addr:_ ~len:_ -> 0);
      writable = (fun ~addr -> addr >= 0 && addr < size);
      readable = (fun ~addr -> addr >= 0 && addr < size);
    }

let pages t ~page_size = (size_bytes t + page_size - 1) / page_size

let offset t ~x ~y =
  if x < 0 || x >= t.width || y < 0 || y >= t.height then
    invalid_arg (Printf.sprintf "Frame_buffer: pixel (%d,%d) out of range" x y);
  ((y * t.width) + x) * bytes_per_pixel

let get_pixel t ~x ~y = Bytes.get_int32_le t.pixels (offset t ~x ~y)

let set_pixel t ~x ~y v = Bytes.set_int32_le t.pixels (offset t ~x ~y) v

let row t ~y =
  if y < 0 || y >= t.height then invalid_arg "Frame_buffer.row: out of range";
  Bytes.sub t.pixels (y * t.width * bytes_per_pixel) (t.width * bytes_per_pixel)

let checksum t =
  let h = ref 0 in
  Bytes.iter (fun c -> h := ((!h * 131) + Char.code c) land 0x3FFFFFFF) t.pixels;
  !h
