type t = {
  page_size : int;
  mem_pages : int;
  dev_pages : int;
  span : int;
}

type region = Mem | Mem_proxy | Dev_proxy

let pp_region ppf = function
  | Mem -> Format.pp_print_string ppf "mem"
  | Mem_proxy -> Format.pp_print_string ppf "mem-proxy"
  | Dev_proxy -> Format.pp_print_string ppf "dev-proxy"

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ~page_size ~mem_pages ~dev_pages =
  if not (is_power_of_two page_size) then
    invalid_arg "Layout.create: page_size must be a power of two";
  if mem_pages <= 0 || dev_pages <= 0 then
    invalid_arg "Layout.create: page counts must be positive";
  let span = next_power_of_two (mem_pages * page_size) in
  { page_size; mem_pages; dev_pages; span }

let page_size t = t.page_size
let mem_pages t = t.mem_pages
let dev_pages t = t.dev_pages
let span t = t.span

let mem_proxy_base t = t.span
let dev_proxy_base t = 2 * t.span

let mem_limit t = t.mem_pages * t.page_size
let dev_limit t = dev_proxy_base t + (t.dev_pages * t.page_size)

let region_of t addr =
  if addr < 0 then None
  else if addr < mem_limit t then Some Mem
  else if addr < t.span then None (* hole above installed memory *)
  else if addr < t.span + mem_limit t then Some Mem_proxy
  else if addr < dev_proxy_base t then None
  else if addr < dev_limit t then Some Dev_proxy
  else None

let proxy_of t addr =
  match region_of t addr with
  | Some Mem -> addr + t.span
  | Some Mem_proxy | Some Dev_proxy | None ->
      invalid_arg (Printf.sprintf "Layout.proxy_of: %#x not in memory space" addr)

let unproxy t addr =
  match region_of t addr with
  | Some Mem_proxy -> addr - t.span
  | Some Mem | Some Dev_proxy | None ->
      invalid_arg
        (Printf.sprintf "Layout.unproxy: %#x not in memory proxy space" addr)

let dev_proxy_addr t ~page ~offset =
  if page < 0 || page >= t.dev_pages then
    invalid_arg (Printf.sprintf "Layout.dev_proxy_addr: page %d" page);
  if offset < 0 || offset >= t.page_size then
    invalid_arg (Printf.sprintf "Layout.dev_proxy_addr: offset %d" offset);
  dev_proxy_base t + (page * t.page_size) + offset

let dev_proxy_index t addr =
  match region_of t addr with
  | Some Dev_proxy ->
      let rel = addr - dev_proxy_base t in
      (rel / t.page_size, rel mod t.page_size)
  | Some Mem | Some Mem_proxy | None ->
      invalid_arg
        (Printf.sprintf "Layout.dev_proxy_index: %#x not in device proxy space"
           addr)

let page_of_addr t addr = addr / t.page_size
let offset_in_page t addr = addr land (t.page_size - 1)
let addr_of_page t page = page * t.page_size
let page_base t addr = addr land lnot (t.page_size - 1)
let same_page t a b = page_base t a = page_base t b

let crosses_page t ~addr ~len =
  if len < 1 then invalid_arg "Layout.crosses_page: len must be >= 1";
  page_base t addr <> page_base t (addr + len - 1)
