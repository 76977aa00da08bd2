type kind = Proxy | Iommu | Capability

let kind_name = function
  | Proxy -> "proxy"
  | Iommu -> "iommu"
  | Capability -> "capability"

let all_kinds = [ Proxy; Iommu; Capability ]

let parse_kind s =
  match String.lowercase_ascii s with
  | "proxy" -> Ok Proxy
  | "iommu" -> Ok Iommu
  | "capability" | "cap" -> Ok Capability
  | _ ->
      Error
        (Printf.sprintf "unknown backend %S (expected proxy|iommu|capability)" s)

type entry = { owner : int; dst_node : int; dst_frame : int }

type fault = Misaligned | No_mapping | Not_owner | Revoked

let fault_name = function
  | Misaligned -> "misaligned"
  | No_mapping -> "no-mapping"
  | Not_owner -> "not-owner"
  | Revoked -> "revoked"

type costs = {
  iotlb_hit : int;
  iotlb_walk : int;
  iommu_map : int;
  iommu_unmap : int;
  cap_check : int;
  cap_grant : int;
  cap_revoke : int;
}

(* The IOTLB numbers follow the two-stage SMMU walk shape (a hit is a
   couple of cycles, a miss costs a multi-level table walk); the
   map/unmap pair is dominated by the kernel round trip and the
   shootdown. Capability validation is a hash+compare per transfer. *)
let default_costs =
  {
    iotlb_hit = 2;
    iotlb_walk = 120;
    iommu_map = 450;
    iommu_unmap = 350;
    cap_check = 18;
    cap_grant = 260;
    cap_revoke = 220;
  }

type stats = {
  st_grants : int;
  st_revokes : int;
  st_invalidations : int;
  st_iotlb_hits : int;
  st_iotlb_misses : int;
  st_authorizations : int;
  st_denials : int;
}

(* One journalled (successful) authorization, kept for the I5 oracle:
   who initiated, against which page, who owned it at that instant and
   whether a live grant backed it. *)
type jrec = { j_tenant : int; j_index : int; j_owner : int; j_backed : bool }

type iotlb_line = {
  mutable l_index : int;
  mutable l_entry : entry option;
  mutable l_last : int;
}

type t = {
  kind : kind;
  costs : costs;
  granted : entry option array;  (* kernel-authoritative grants *)
  hw : entry option array;       (* NIPT / capability-validation table *)
  iotlb : iotlb_line array;      (* Iommu datapath cache *)
  mutable iotlb_tick : int;
  cap_revoked : bool array;      (* Capability: killed, not just absent *)
  journal : jrec option array;
  mutable j_cursor : int;
  mutable grants : int;
  mutable revokes : int;
  mutable invalidations : int;
  mutable iotlb_hits : int;
  mutable iotlb_misses : int;
  mutable authorizations : int;
  mutable denials : int;
}

let journal_depth = 128

let create ?(costs = default_costs) ?(iotlb_entries = 8) kind ~entries () =
  if entries <= 0 then invalid_arg "Backend.create: entries must be positive";
  if iotlb_entries <= 0 then
    invalid_arg "Backend.create: iotlb_entries must be positive";
  {
    kind;
    costs;
    granted = Array.make entries None;
    hw = Array.make entries None;
    iotlb =
      Array.init iotlb_entries (fun _ ->
          { l_index = -1; l_entry = None; l_last = 0 });
    iotlb_tick = 0;
    cap_revoked = Array.make entries false;
    journal = Array.make journal_depth None;
    j_cursor = 0;
    grants = 0;
    revokes = 0;
    invalidations = 0;
    iotlb_hits = 0;
    iotlb_misses = 0;
    authorizations = 0;
    denials = 0;
  }

let kind t = t.kind
let capacity t = Array.length t.granted

let valid_count t =
  Array.fold_left (fun n e -> if e = None then n else n + 1) 0 t.granted

let in_range t index = index >= 0 && index < Array.length t.granted

(* ---------- datapath decode (the old NIPT surface) ---------- *)

let err_misaligned = 0x1
let err_no_mapping = 0x2

let decode t ~index =
  if not (in_range t index) then None
  else
    match t.kind with
    | Proxy | Capability -> t.hw.(index)
    | Iommu -> t.granted.(index)

let validate_bits t ~dev_addr ~nbytes ~page_size =
  let align =
    if dev_addr land 3 <> 0 || nbytes land 3 <> 0 then err_misaligned else 0
  in
  let mapping =
    match decode t ~index:(dev_addr / page_size) with
    | Some _ -> 0
    | None -> err_no_mapping
  in
  align lor mapping

(* ---------- IOTLB ---------- *)

let iotlb_drop t ~index =
  let dropped = ref false in
  Array.iter
    (fun l ->
      if l.l_index = index && l.l_entry <> None then begin
        l.l_index <- -1;
        l.l_entry <- None;
        dropped := true
      end)
    t.iotlb;
  !dropped

let iotlb_probe t ~index =
  t.iotlb_tick <- t.iotlb_tick + 1;
  let hit = ref None in
  Array.iter
    (fun l ->
      if l.l_index = index && l.l_entry <> None then begin
        l.l_last <- t.iotlb_tick;
        hit := l.l_entry
      end)
    t.iotlb;
  !hit

let iotlb_fill t ~index entry =
  let victim = ref t.iotlb.(0) in
  Array.iter (fun l -> if l.l_last < !victim.l_last then victim := l) t.iotlb;
  !victim.l_index <- index;
  !victim.l_entry <- Some entry;
  !victim.l_last <- t.iotlb_tick

(* ---------- kernel-mediated control path ---------- *)

let grant t ~owner ~index ~dst_node ~dst_frame =
  if not (in_range t index) then
    invalid_arg (Printf.sprintf "Backend.grant: index %d out of range" index);
  let e = { owner; dst_node; dst_frame } in
  t.grants <- t.grants + 1;
  t.granted.(index) <- Some e;
  t.hw.(index) <- Some e;
  match t.kind with
  | Proxy -> 0
  | Iommu ->
      (* a remap must never leave an old translation cached *)
      if iotlb_drop t ~index then t.invalidations <- t.invalidations + 1;
      t.costs.iommu_map
  | Capability ->
      t.cap_revoked.(index) <- false;
      t.costs.cap_grant

let revoke t ~index =
  if not (in_range t index) || t.granted.(index) = None then 0
  else begin
    t.revokes <- t.revokes + 1;
    t.granted.(index) <- None;
    t.hw.(index) <- None;
    t.invalidations <- t.invalidations + 1;
    match t.kind with
    | Proxy -> 0
    | Iommu ->
        ignore (iotlb_drop t ~index);
        t.costs.iommu_unmap
    | Capability ->
        t.cap_revoked.(index) <- true;
        t.costs.cap_revoke
  end

let revoke_owner t ~owner =
  let cycles = ref 0 in
  Array.iteri
    (fun index e ->
      match e with
      | Some { owner = o; _ } when o = owner -> cycles := !cycles + revoke t ~index
      | Some _ | None -> ())
    t.granted;
  !cycles

(* ---------- protected initiation ---------- *)

let journal_push t rec_ =
  t.journal.(t.j_cursor) <- Some rec_;
  t.j_cursor <- (t.j_cursor + 1) mod journal_depth

let owner_checked ~tenant (e : entry) = tenant < 0 || e.owner = tenant

let authorize t ~tenant ~index =
  t.authorizations <- t.authorizations + 1;
  let deny fault cost =
    t.denials <- t.denials + 1;
    Error (fault, cost)
  in
  let found, cost =
    match t.kind with
    | Proxy -> (decode t ~index, 0)
    | Capability -> (decode t ~index, t.costs.cap_check)
    | Iommu -> (
        if not (in_range t index) then (None, t.costs.iotlb_walk)
        else
          match iotlb_probe t ~index with
          | Some e ->
              t.iotlb_hits <- t.iotlb_hits + 1;
              (Some e, t.costs.iotlb_hit)
          | None -> (
              t.iotlb_misses <- t.iotlb_misses + 1;
              match t.granted.(index) with
              | Some e ->
                  iotlb_fill t ~index e;
                  (Some e, t.costs.iotlb_walk)
              | None -> (None, t.costs.iotlb_walk)))
  in
  match found with
  | None ->
      let fault =
        if
          t.kind = Capability && in_range t index && t.cap_revoked.(index)
        then Revoked
        else No_mapping
      in
      deny fault cost
  | Some e ->
      if not (owner_checked ~tenant e) then deny Not_owner cost
      else begin
        let backed =
          in_range t index
          && match t.granted.(index) with Some g -> g = e | None -> false
        in
        journal_push t { j_tenant = tenant; j_index = index; j_owner = e.owner;
                         j_backed = backed };
        Ok (e, cost)
      end

(* ---------- the I5 oracle ---------- *)

let check t =
  let name = kind_name t.kind in
  let stale_hw () =
    let bad = ref None in
    Array.iteri
      (fun index hw ->
        if !bad = None then
          match (hw, t.granted.(index)) with
          | Some e, Some g when g = e -> ()
          | Some _, _ ->
              bad :=
                Some
                  (Printf.sprintf
                     "%s backend: datapath entry for dev page %d survived \
                      teardown (no matching live grant)"
                     name index)
          | None, _ -> ())
      t.hw;
    !bad
  in
  let stale_iotlb () =
    let bad = ref None in
    Array.iter
      (fun l ->
        if !bad = None then
          match l.l_entry with
          | Some e -> (
              match
                if in_range t l.l_index then t.granted.(l.l_index) else None
              with
              | Some g when g = e -> ()
              | _ ->
                  bad :=
                    Some
                      (Printf.sprintf
                         "%s backend: IOTLB line for dev page %d survived the \
                          unmap shootdown"
                         name l.l_index))
          | None -> ())
      t.iotlb;
    !bad
  in
  let journal_breach () =
    let bad = ref None in
    Array.iter
      (fun r ->
        if !bad = None then
          match r with
          | Some j when j.j_tenant >= 0 && j.j_tenant <> j.j_owner ->
              bad :=
                Some
                  (Printf.sprintf
                     "%s backend: tenant %d was authorized for dev page %d \
                      owned by tenant %d (isolation leak)"
                     name j.j_tenant j.j_index j.j_owner)
          | Some j when not j.j_backed ->
              bad :=
                Some
                  (Printf.sprintf
                     "%s backend: a transfer was authorized against dev page \
                      %d after its grant was revoked (stale invalidation)"
                     name j.j_index)
          | Some _ | None -> ())
      t.journal;
    !bad
  in
  match stale_hw () with
  | Some _ as v -> v
  | None -> (
      match stale_iotlb () with
      | Some _ as v -> v
      | None -> journal_breach ())

let stats t =
  {
    st_grants = t.grants;
    st_revokes = t.revokes;
    st_invalidations = t.invalidations;
    st_iotlb_hits = t.iotlb_hits;
    st_iotlb_misses = t.iotlb_misses;
    st_authorizations = t.authorizations;
    st_denials = t.denials;
  }
