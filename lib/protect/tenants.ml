module Rng = Udma_sim.Rng
module Cost_model = Udma_os.Cost_model

type fault = Invalidated | Backend_fault of Backend.fault

type config = {
  kind : Backend.kind;
  tenants : int;
  slots : int;
  ops : int;
  churn_pct : int;
  evict_pct : int;
  rogue_pct : int;
  seed : int;
  costs : Cost_model.t;
  bcosts : Backend.costs;
}

let default_config =
  {
    kind = Backend.Proxy;
    tenants = 8;
    slots = 64;
    ops = 20_000;
    churn_pct = 8;
    evict_pct = 4;
    rogue_pct = 4;
    seed = 42;
    costs = Cost_model.default;
    bcosts = Backend.default_costs;
  }

type result = {
  sends : int;
  p50 : int;
  p99 : int;
  p999 : int;
  mean : float;
  faults : int;
  rogue_probes : int;
  rogue_denied : int;
  grants : int;
  revokes : int;
  invalidations : int;
  iotlb_hits : int;
  iotlb_misses : int;
  isolation_breaches : int;
}

type t = {
  cfg : config;
  backend : Backend.t;
  slot_of : int array;    (* tenant -> slot, -1 when not resident *)
  tenant_of : int array;  (* slot -> tenant, -1 when free *)
  last_slot : int array;  (* last slot the tenant initiated against *)
  tlb_hot : bool array;   (* tenant's UDMA pages warm in its TLB *)
  invalidated : bool array;  (* I1 Inval pending from a deschedule *)
  mutable victim : int;   (* round-robin slot-eviction cursor *)
  rng : Rng.t;
  mutable faults : int;
  mutable rogue_probes : int;
  mutable rogue_denied : int;
  mutable breaches : int;
}

let validate cfg =
  if cfg.tenants <= 0 then Error "tenants must be positive"
  else if cfg.slots <= 0 then Error "slots must be positive"
  else if cfg.ops <= 0 then Error "ops must be positive"
  else if cfg.churn_pct < 0 || cfg.evict_pct < 0 || cfg.rogue_pct < 0 then
    Error "negative injection rate"
  else if cfg.churn_pct + cfg.evict_pct + cfg.rogue_pct > 100 then
    Error "injection rates exceed 100%"
  else Ok ()

let create cfg =
  Result.iter_error (fun msg -> invalid_arg ("Tenants.create: " ^ msg)) (validate cfg);
  {
    cfg;
    backend = Backend.create ~costs:cfg.bcosts cfg.kind ~entries:cfg.slots ();
    slot_of = Array.make cfg.tenants (-1);
    tenant_of = Array.make cfg.slots (-1);
    last_slot = Array.make cfg.tenants (-1);
    tlb_hot = Array.make cfg.tenants false;
    invalidated = Array.make cfg.tenants false;
    victim = 0;
    rng = Rng.create cfg.seed;
    faults = 0;
    rogue_probes = 0;
    rogue_denied = 0;
    breaches = 0;
  }

let backend t = t.backend

(* A tenant id no real tenant can hold; authorize with it always trips
   the owner check. *)
let rogue_id t = t.cfg.tenants + 999

let evict_slot t ~slot =
  if slot < 0 || slot >= t.cfg.slots then
    invalid_arg "Tenants.evict_slot: slot out of range";
  match t.tenant_of.(slot) with
  | -1 -> 0
  | occupant ->
      t.slot_of.(occupant) <- -1;
      t.tenant_of.(slot) <- -1;
      Backend.revoke t.backend ~index:slot

let revoke_tenant t ~tenant =
  match t.slot_of.(tenant) with
  | -1 -> 0
  | slot -> evict_slot t ~slot

(* Kernel grant path: claim a free slot (evicting the round-robin
   victim under overcommit) and install the tenant's destination. *)
let attach t ~tenant =
  let c = t.cfg.costs in
  let evict_cost, slot =
    match t.slot_of.(tenant) with
    | s when s >= 0 -> (0, s) (* already resident: refresh the grant in place *)
    | _ ->
        let free = ref (-1) in
        for s = t.cfg.slots - 1 downto 0 do
          if t.tenant_of.(s) = -1 then free := s
        done;
        if !free >= 0 then (0, !free)
        else begin
          let s = t.victim in
          t.victim <- (t.victim + 1) mod t.cfg.slots;
          (evict_slot t ~slot:s, s)
        end
  in
  t.slot_of.(tenant) <- slot;
  t.tenant_of.(slot) <- tenant;
  let grant_cost =
    Backend.grant t.backend ~owner:tenant ~index:slot
      ~dst_node:(tenant land 0xf)
      ~dst_frame:(slot + tenant)
  in
  let proxy_map =
    match t.cfg.kind with
    | Backend.Proxy -> c.Cost_model.proxy_map
    | Backend.Iommu | Backend.Capability -> 0
  in
  c.Cost_model.syscall + proxy_map + grant_cost + evict_cost

let initiate t ~tenant =
  let c = t.cfg.costs in
  (* Two uncached proxy-space stores is the whole fast path; a cold TLB
     adds the two translations the paper charges for the first touch. *)
  let warm =
    if t.tlb_hot.(tenant) then 0
    else begin
      t.tlb_hot.(tenant) <- true;
      2 * c.Cost_model.tlb_miss
    end
  in
  let base = (2 * c.Cost_model.uncached_ref) + warm in
  if t.invalidated.(tenant) then begin
    (* The deschedule invalidated the latched initiation: the status
       read comes back Inval and the transfer must be reissued. *)
    t.invalidated.(tenant) <- false;
    Error (Invalidated, base + c.Cost_model.uncached_ref)
  end
  else begin
    let index =
      match t.slot_of.(tenant) with
      | -1 ->
          (* No resident mapping: the device decodes whatever the
             tenant last named (or an unconfigured page) and faults. *)
          if t.last_slot.(tenant) >= 0 then t.last_slot.(tenant)
          else t.cfg.slots
      | slot ->
          t.last_slot.(tenant) <- slot;
          slot
    in
    match Backend.authorize t.backend ~tenant ~index with
    | Ok (_entry, cost) -> Ok (base + cost)
    | Error (f, cost) -> Error (Backend_fault f, base + cost)
  end

let send t ~tenant =
  let c = t.cfg.costs in
  let total = ref 0 in
  let attempts = ref 0 in
  let done_ = ref false in
  while not !done_ do
    incr attempts;
    if !attempts > 4 then
      failwith "Tenants.send: initiation did not converge";
    match initiate t ~tenant with
    | Ok cycles ->
        total := !total + cycles;
        done_ := true
    | Error (Invalidated, cycles) ->
        (* Reissue: the mapping is intact, only the latch was lost. *)
        t.faults <- t.faults + 1;
        total := !total + cycles
    | Error (Backend_fault _, cycles) ->
        (* Trap to the kernel and re-establish the mapping. The proxy
           path recovers through a page fault on the proxy page; the
           others go straight to the map/grant syscall. *)
        t.faults <- t.faults + 1;
        let trap =
          match t.cfg.kind with
          | Backend.Proxy -> c.Cost_model.page_fault
          | Backend.Iommu | Backend.Capability -> 0
        in
        total := !total + cycles + trap + attach t ~tenant
  done;
  !total

let deschedule t ~tenant =
  t.tlb_hot.(tenant) <- false;
  t.invalidated.(tenant) <- true

let rogue_probe t ~rogue ~slot =
  if slot < 0 || slot >= t.cfg.slots then
    invalid_arg "Tenants.rogue_probe: slot out of range";
  t.rogue_probes <- t.rogue_probes + 1;
  (* Three probes per attack: the named slot, the hottest slot (0) and
     an out-of-range index (an unmapped IOVA / unconfigured page). *)
  let denied index =
    match Backend.authorize t.backend ~tenant:rogue ~index with
    | Ok _ -> false
    | Error _ -> true
  in
  let ok = denied slot && denied 0 && denied t.cfg.slots in
  if ok then t.rogue_denied <- t.rogue_denied + 1
  else t.breaches <- t.breaches + 1;
  ok

let run cfg =
  let t = create cfg in
  let lat = ref [] in
  let nlat = ref 0 in
  let churn = cfg.churn_pct in
  let evict = churn + cfg.evict_pct in
  let rogue = evict + cfg.rogue_pct in
  let sweep () =
    match Backend.check t.backend with
    | None -> ()
    | Some _ -> t.breaches <- t.breaches + 1
  in
  for op = 1 to cfg.ops do
    let r = Rng.int t.rng 100 in
    if r < churn then deschedule t ~tenant:(Rng.int t.rng cfg.tenants)
    else if r < evict then ignore (evict_slot t ~slot:(Rng.int t.rng cfg.slots))
    else if r < rogue then
      ignore (rogue_probe t ~rogue:(rogue_id t) ~slot:(Rng.int t.rng cfg.slots))
    else begin
      let tenant = Rng.int t.rng cfg.tenants in
      let cycles = send t ~tenant in
      lat := cycles :: !lat;
      incr nlat
    end;
    if op land 255 = 0 then sweep ()
  done;
  sweep ();
  let sorted = Array.of_list !lat in
  Array.stable_sort Int.compare sorted;
  let sum = Array.fold_left ( + ) 0 sorted in
  let st = Backend.stats t.backend in
  {
    sends = !nlat;
    p50 = Udma_obs.Metrics.nearest_rank sorted 50.;
    p99 = Udma_obs.Metrics.nearest_rank sorted 99.;
    p999 = Udma_obs.Metrics.nearest_rank sorted 99.9;
    mean = (if !nlat = 0 then 0. else float_of_int sum /. float_of_int !nlat);
    faults = t.faults;
    rogue_probes = t.rogue_probes;
    rogue_denied = t.rogue_denied;
    grants = st.Backend.st_grants;
    revokes = st.Backend.st_revokes;
    invalidations = st.Backend.st_invalidations;
    iotlb_hits = st.Backend.st_iotlb_hits;
    iotlb_misses = st.Backend.st_iotlb_misses;
    isolation_breaches = t.breaches;
  }
