module Event = Udma_obs.Event

type t = {
  enabled : bool;
  capacity : int;
  mutable items : Event.t list; (* newest first, length <= capacity *)
  mutable count : int;
  mutable sinks : Event.sink list;
}

let global_sink : Event.sink option ref = ref None

let set_global_sink s = global_sink := s

let create ?(capacity = 4096) ~enabled () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { enabled; capacity; items = []; count = 0; sinks = [] }

let active t =
  t.enabled
  || (match t.sinks with _ :: _ -> true | [] -> false)
  || Option.is_some !global_sink

let add_sink t sink = t.sinks <- sink :: t.sinks

let trim t =
  if t.count > t.capacity then begin
    (* Drop the oldest half; amortises the O(n) rebuild. At capacity 1
       half would be 0 and silently discard even the newest record. *)
    let keep = Int.max 1 (t.capacity / 2) in
    t.items <- List.filteri (fun i _ -> i < keep) t.items;
    t.count <- keep
  end

let record t ~time subsystem payload =
  if active t then begin
    let ev = Event.make ~time subsystem payload in
    if t.enabled then begin
      t.items <- ev :: t.items;
      t.count <- t.count + 1;
      trim t
    end;
    List.iter (fun sink -> sink ev) t.sinks;
    match !global_sink with Some sink -> sink ev | None -> ()
  end

let note t ~time subsystem msg = record t ~time subsystem (Event.Note msg)

let events t = List.rev t.items

let matching t pred = List.filter pred (events t)
