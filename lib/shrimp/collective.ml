module Initiator = Udma.Initiator
module Kernel = Udma_os.Kernel

type member = {
  node : int;
  proc : Udma_os.Proc.t;
  cpu : Initiator.cpu;
  token_vaddr : int; (* 1-word send buffer for barrier tokens *)
}

type link = { channel : Messaging.channel; mutable last_seq : int }

type group = {
  members : member array;
  links : link option array array; (* data channels, links.(s).(r), s <> r *)
  barrier_up : link option array;  (* rank r -> root, r >= 1 *)
  barrier_down : link option array; (* root -> rank r, r >= 1 *)
  mutable arrived : bool array;
  mutable barrier_round : int;
  mutable barriers_completed : int;
}

let group_size g = Array.length g.members

let link g ~src ~dst =
  match g.links.(src).(dst) with
  | Some l -> l
  | None -> invalid_arg "Collective: no channel between these ranks"

let create_group system ~members ?(first_index = 0) ?(pages_per_channel = 1) ()
    =
  let n = List.length members in
  if n < 2 then invalid_arg "Collective.create_group: need at least 2 members";
  let members =
    Array.of_list
      (List.map
         (fun (node, proc) ->
           let machine = (System.node system node).System.machine in
           let token_vaddr = Kernel.alloc_buffer machine proc ~bytes:4096 in
           (* dirty it once so it can be a transfer source *)
           Kernel.write_user machine proc ~vaddr:token_vaddr
             (Bytes.make 4 '\000');
           { node; proc; cpu = Kernel.user_cpu machine proc; token_vaddr })
         members)
  in
  let idx = ref first_index in
  let connect ~src ~dst ~pages =
    let ms = members.(src) and mr = members.(dst) in
    let channel =
      Messaging.connect system
        ~sender:(ms.node, ms.proc)
        ~receiver:(mr.node, mr.proc)
        ~first_index:!idx ~pages ()
    in
    idx := !idx + pages;
    Some { channel; last_seq = 0 }
  in
  let links = Array.make_matrix n n None in
  for s = 0 to n - 1 do
    for r = 0 to n - 1 do
      if s <> r then links.(s).(r) <- connect ~src:s ~dst:r ~pages:pages_per_channel
    done
  done;
  (* barriers get their own channels so tokens never clobber data in a
     channel's receive window *)
  let barrier_up = Array.make n None and barrier_down = Array.make n None in
  for r = 1 to n - 1 do
    barrier_up.(r) <- connect ~src:r ~dst:0 ~pages:1;
    barrier_down.(r) <- connect ~src:0 ~dst:r ~pages:1
  done;
  {
    members;
    links;
    barrier_up;
    barrier_down;
    arrived = Array.make n false;
    barrier_round = 0;
    barriers_completed = 0;
  }

let fail_send e =
  failwith (Format.asprintf "Collective: %a" Messaging.pp_send_error e)

let send_on g l ~src =
  let m = g.members.(src) in
  match
    Messaging.send l.channel m.cpu ~src_vaddr:m.token_vaddr ~nbytes:4 ()
  with
  | Ok seq -> l.last_seq <- seq
  | Error e -> fail_send e

let wait_on g l ~dst =
  match
    Messaging.recv_wait l.channel g.members.(dst).cpu ~seq:l.last_seq ()
  with
  | Ok _ -> ()
  | Error msg -> failwith ("Collective: " ^ msg)

let wait_token g ~src ~dst = wait_on g (link g ~src ~dst) ~dst

let barrier g ~rank =
  let n = group_size g in
  if rank < 0 || rank >= n then invalid_arg "Collective.barrier: bad rank";
  if g.arrived.(rank) then
    invalid_arg "Collective.barrier: rank already arrived this round";
  g.arrived.(rank) <- true;
  (* non-root ranks notify the root as they arrive *)
  if rank <> 0 then send_on g (Option.get g.barrier_up.(rank)) ~src:rank;
  if Array.for_all Fun.id g.arrived then begin
    (* gather: the root observes every token *)
    for r = 1 to n - 1 do
      wait_on g (Option.get g.barrier_up.(r)) ~dst:0
    done;
    (* release: the root notifies everyone, and each rank observes it *)
    for r = 1 to n - 1 do
      send_on g (Option.get g.barrier_down.(r)) ~src:0
    done;
    for r = 1 to n - 1 do
      wait_on g (Option.get g.barrier_down.(r)) ~dst:r
    done;
    g.arrived <- Array.make n false;
    g.barrier_round <- g.barrier_round + 1;
    g.barriers_completed <- g.barriers_completed + 1
  end

let barriers_completed g = g.barriers_completed

let broadcast g ~root ~src_vaddr ~nbytes =
  let n = group_size g in
  if root < 0 || root >= n then invalid_arg "Collective.broadcast: bad root";
  let pending =
    List.filter_map
      (fun r ->
        if r = root then None
        else begin
          let l = link g ~src:root ~dst:r in
          match
            Messaging.send l.channel g.members.(root).cpu ~src_vaddr ~nbytes ()
          with
          | Ok seq ->
              l.last_seq <- seq;
              Some r
          | Error e -> fail_send e
        end)
      (List.init n Fun.id)
  in
  List.iter (fun r -> wait_token g ~src:root ~dst:r) pending

let bcast_recv_vaddr g ~root ~rank =
  if root = rank then
    invalid_arg "Collective.bcast_recv_vaddr: root receives nothing";
  Messaging.recv_vaddr (link g ~src:root ~dst:rank).channel

let all_gather g ~contributions =
  let n = group_size g in
  if Array.length contributions <> n then
    invalid_arg "Collective.all_gather: one contribution per rank";
  (* everyone sends to everyone, then everyone observes everything *)
  for s = 0 to n - 1 do
    let src_vaddr, nbytes = contributions.(s) in
    for r = 0 to n - 1 do
      if s <> r then begin
        let l = link g ~src:s ~dst:r in
        match
          Messaging.send l.channel g.members.(s).cpu ~src_vaddr ~nbytes ()
        with
        | Ok seq -> l.last_seq <- seq
        | Error e -> fail_send e
      end
    done
  done;
  for s = 0 to n - 1 do
    for r = 0 to n - 1 do
      if s <> r then wait_token g ~src:s ~dst:r
    done
  done

let gather_recv_vaddr g ~from_rank ~rank =
  if from_rank = rank then
    invalid_arg "Collective.gather_recv_vaddr: a rank keeps its own data";
  Messaging.recv_vaddr (link g ~src:from_rank ~dst:rank).channel
