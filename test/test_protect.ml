(* Unit tests for the protection backends (lib/protect): the decode
   parity that makes the proxy backend a drop-in for the old NIPT, the
   kernel grant/revoke path and its per-backend costs, the IOMMU's
   IOTLB, the capability revocation taxonomy, ownership enforcement,
   the planted P1/P2 mutations as seen by the I5 oracle, and the
   tenant-scale harness driving all of it. *)

module Backend = Udma_protect.Backend
module Tenants = Udma_protect.Tenants

let c = Backend.default_costs

let mk ?iotlb_entries kind = Backend.create ?iotlb_entries kind ~entries:16 ()

let fault =
  Alcotest.testable
    (fun ppf f -> Fmt.string ppf (Backend.fault_name f))
    ( = )

let auth_ok t ~tenant ~index =
  match Backend.authorize t ~tenant ~index with
  | Ok (e, cost) -> (e, cost)
  | Error (f, _) ->
      Alcotest.failf "authorize tenant=%d index=%d unexpectedly faulted: %s"
        tenant index (Backend.fault_name f)

let auth_err t ~tenant ~index =
  match Backend.authorize t ~tenant ~index with
  | Ok _ ->
      Alcotest.failf "authorize tenant=%d index=%d unexpectedly succeeded"
        tenant index
  | Error (f, cost) -> (f, cost)

(* ---------- datapath decode: NIPT parity ---------- *)

let test_validate_bits () =
  List.iter
    (fun kind ->
      let t = mk kind in
      let v = Backend.validate_bits t ~page_size:4096 in
      (* unconfigured, aligned: mapping bit only *)
      Alcotest.(check int) "no mapping" Backend.err_no_mapping
        (v ~dev_addr:0 ~nbytes:64);
      (* misaligned address and count each raise bit 0 *)
      Alcotest.(check int) "misaligned addr"
        (Backend.err_misaligned lor Backend.err_no_mapping)
        (v ~dev_addr:2 ~nbytes:64);
      Alcotest.(check int) "misaligned count"
        (Backend.err_misaligned lor Backend.err_no_mapping)
        (v ~dev_addr:0 ~nbytes:3);
      ignore (Backend.grant t ~owner:1 ~index:0 ~dst_node:1 ~dst_frame:7);
      Alcotest.(check int) "clean after grant" 0 (v ~dev_addr:0 ~nbytes:64);
      Alcotest.(check int) "misalignment still flagged on a granted page"
        Backend.err_misaligned
        (v ~dev_addr:4 ~nbytes:6))
    Backend.all_kinds

let test_grant_revoke () =
  List.iter
    (fun kind ->
      let t = mk kind in
      Alcotest.(check int) "empty" 0 (Backend.valid_count t);
      ignore (Backend.grant t ~owner:3 ~index:5 ~dst_node:2 ~dst_frame:9);
      (match Backend.decode t ~index:5 with
      | Some e ->
          Alcotest.(check int) "owner" 3 e.Backend.owner;
          Alcotest.(check int) "dst_node" 2 e.Backend.dst_node;
          Alcotest.(check int) "dst_frame" 9 e.Backend.dst_frame
      | None -> Alcotest.fail "granted entry does not decode");
      Alcotest.(check int) "one valid" 1 (Backend.valid_count t);
      ignore (Backend.revoke t ~index:5);
      Alcotest.(check bool) "revoked entry decodes to None" true
        (Backend.decode t ~index:5 = None);
      Alcotest.(check int) "revoking an empty index is free" 0
        (Backend.revoke t ~index:5);
      Alcotest.(check bool) "out-of-range decode is None" true
        (Backend.decode t ~index:99 = None))
    Backend.all_kinds

let test_control_path_costs () =
  let grant_cost kind =
    Backend.grant (mk kind) ~owner:1 ~index:0 ~dst_node:0 ~dst_frame:0
  in
  let revoke_cost kind =
    let t = mk kind in
    ignore (Backend.grant t ~owner:1 ~index:0 ~dst_node:0 ~dst_frame:0);
    Backend.revoke t ~index:0
  in
  Alcotest.(check int) "proxy grant is free (caller pays the syscall)" 0
    (grant_cost Backend.Proxy);
  Alcotest.(check int) "iommu grant = map" c.Backend.iommu_map
    (grant_cost Backend.Iommu);
  Alcotest.(check int) "capability grant" c.Backend.cap_grant
    (grant_cost Backend.Capability);
  Alcotest.(check int) "proxy revoke is free" 0 (revoke_cost Backend.Proxy);
  Alcotest.(check int) "iommu revoke = unmap + shootdown"
    c.Backend.iommu_unmap (revoke_cost Backend.Iommu);
  Alcotest.(check int) "capability revoke" c.Backend.cap_revoke
    (revoke_cost Backend.Capability)

let test_revoke_owner () =
  List.iter
    (fun kind ->
      let t = mk kind in
      ignore (Backend.grant t ~owner:1 ~index:0 ~dst_node:0 ~dst_frame:0);
      ignore (Backend.grant t ~owner:2 ~index:1 ~dst_node:0 ~dst_frame:1);
      ignore (Backend.grant t ~owner:1 ~index:2 ~dst_node:0 ~dst_frame:2);
      ignore (Backend.revoke_owner t ~owner:1);
      Alcotest.(check bool) "owner 1's grants are gone" true
        (Backend.decode t ~index:0 = None && Backend.decode t ~index:2 = None);
      Alcotest.(check bool) "owner 2's grant survives" true
        (Backend.decode t ~index:1 <> None))
    Backend.all_kinds

(* ---------- ownership enforcement ---------- *)

let test_owner_enforcement () =
  List.iter
    (fun kind ->
      let t = mk kind in
      ignore (Backend.grant t ~owner:7 ~index:3 ~dst_node:1 ~dst_frame:4);
      let e, _ = auth_ok t ~tenant:7 ~index:3 in
      Alcotest.(check int) "owner authorizes" 7 e.Backend.owner;
      let f, _ = auth_err t ~tenant:8 ~index:3 in
      Alcotest.check fault "cross-tenant access is Not_owner"
        Backend.Not_owner f;
      (* negative tenant = the MMU-verified NI datapath: per-process
         proxy mappings already carried the identity check *)
      ignore (auth_ok t ~tenant:(-1) ~index:3);
      let f, _ = auth_err t ~tenant:7 ~index:9 in
      Alcotest.check fault "unconfigured page is No_mapping"
        Backend.No_mapping f;
      Alcotest.(check bool) "oracle stays clean under legal traffic" true
        (Backend.check t = None))
    Backend.all_kinds

let test_capability_revoked_fault () =
  let t = mk Backend.Capability in
  ignore (Backend.grant t ~owner:1 ~index:2 ~dst_node:0 ~dst_frame:0);
  ignore (Backend.revoke t ~index:2);
  let f, cost = auth_err t ~tenant:1 ~index:2 in
  Alcotest.check fault "presenting a revoked capability is Revoked"
    Backend.Revoked f;
  Alcotest.(check int) "the failed check still costs the validation"
    c.Backend.cap_check cost;
  (* the other backends report the same sequence as a plain miss *)
  List.iter
    (fun kind ->
      let t = mk kind in
      ignore (Backend.grant t ~owner:1 ~index:2 ~dst_node:0 ~dst_frame:0);
      ignore (Backend.revoke t ~index:2);
      let f, _ = auth_err t ~tenant:1 ~index:2 in
      Alcotest.check fault "revoke then use is No_mapping" Backend.No_mapping
        f)
    [ Backend.Proxy; Backend.Iommu ];
  (* re-granting revives the capability *)
  ignore (Backend.grant t ~owner:1 ~index:2 ~dst_node:0 ~dst_frame:0);
  ignore (auth_ok t ~tenant:1 ~index:2)

(* ---------- the IOTLB ---------- *)

let test_iotlb_hit_miss () =
  let t = mk ~iotlb_entries:2 Backend.Iommu in
  for i = 0 to 2 do
    ignore (Backend.grant t ~owner:1 ~index:i ~dst_node:0 ~dst_frame:i)
  done;
  let _, cost = auth_ok t ~tenant:1 ~index:0 in
  Alcotest.(check int) "cold access walks" c.Backend.iotlb_walk cost;
  let _, cost = auth_ok t ~tenant:1 ~index:0 in
  Alcotest.(check int) "second access hits" c.Backend.iotlb_hit cost;
  (* touch two more pages: the 2-entry IOTLB must evict page 0 (LRU) *)
  ignore (auth_ok t ~tenant:1 ~index:1);
  ignore (auth_ok t ~tenant:1 ~index:2);
  let _, cost = auth_ok t ~tenant:1 ~index:0 in
  Alcotest.(check int) "evicted line walks again" c.Backend.iotlb_walk cost;
  let s = Backend.stats t in
  Alcotest.(check int) "hit count" 1 s.Backend.st_iotlb_hits;
  Alcotest.(check int) "miss count" 4 s.Backend.st_iotlb_misses

let test_iotlb_shootdown () =
  let t = mk ~iotlb_entries:4 Backend.Iommu in
  ignore (Backend.grant t ~owner:1 ~index:0 ~dst_node:0 ~dst_frame:0);
  ignore (auth_ok t ~tenant:1 ~index:0) (* line is now cached *);
  ignore (Backend.revoke t ~index:0);
  let f, cost = auth_err t ~tenant:1 ~index:0 in
  Alcotest.check fault "unmap shoots the line down" Backend.No_mapping f;
  Alcotest.(check int) "the miss pays the walk" c.Backend.iotlb_walk cost;
  (* remap with a different frame: the grant path must not leave the
     old translation cached *)
  ignore (Backend.grant t ~owner:1 ~index:0 ~dst_node:0 ~dst_frame:5);
  ignore (auth_ok t ~tenant:1 ~index:0);
  ignore (Backend.grant t ~owner:1 ~index:0 ~dst_node:0 ~dst_frame:6);
  let e, _ = auth_ok t ~tenant:1 ~index:0 in
  Alcotest.(check int) "remap is visible immediately" 6 e.Backend.dst_frame;
  Alcotest.(check bool) "oracle clean" true (Backend.check t = None)

(* ---------- the planted bugs, as the I5 oracle sees them ---------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_mutation_owner_skip () =
  List.iter
    (fun kind ->
      let t = mk kind in
      ignore (Backend.grant t ~owner:1 ~index:0 ~dst_node:0 ~dst_frame:0);
      Backend.set_mutation t (Some (Backend.Owner_skip 0));
      (* the buggy kernel lets tenant 2 through on page 0... *)
      ignore (auth_ok t ~tenant:2 ~index:0);
      (match Backend.check t with
      | Some msg ->
          Alcotest.(check bool)
            (Backend.kind_name kind ^ ": breach names the leak") true
            (contains msg "isolation leak")
      | None ->
          Alcotest.failf "%s: P1 leak not caught by check"
            (Backend.kind_name kind));
      (* ...but only on the planted page *)
      ignore (Backend.grant t ~owner:1 ~index:1 ~dst_node:0 ~dst_frame:1);
      let f, _ = auth_err t ~tenant:2 ~index:1 in
      Alcotest.check fault "other pages still enforce" Backend.Not_owner f)
    Backend.all_kinds

let test_mutation_stale_revoke () =
  List.iter
    (fun kind ->
      let t = mk ~iotlb_entries:4 kind in
      ignore (Backend.grant t ~owner:1 ~index:0 ~dst_node:0 ~dst_frame:0);
      (* Iommu's datapath state is the IOTLB: cache the line first *)
      ignore (auth_ok t ~tenant:1 ~index:0);
      Backend.set_mutation t (Some Backend.Stale_revoke);
      ignore (Backend.revoke t ~index:0);
      match Backend.check t with
      | Some msg ->
          Alcotest.(check bool)
            (Backend.kind_name kind ^ ": stale entry reported") true
            (contains msg "survived")
      | None ->
          Alcotest.failf "%s: P2 stale entry not caught by check"
            (Backend.kind_name kind))
    Backend.all_kinds

(* ---------- the tenant-scale harness ---------- *)

let small kind =
  {
    Tenants.default_config with
    Tenants.kind;
    tenants = 32;
    slots = 8;
    ops = 3_000;
  }

let test_tenants_smoke () =
  List.iter
    (fun kind ->
      let r = Tenants.run (small kind) in
      let name = Backend.kind_name kind in
      Alcotest.(check bool) (name ^ ": sends happened") true (r.Tenants.sends > 0);
      Alcotest.(check bool) (name ^ ": percentiles are ordered") true
        (r.Tenants.p50 <= r.Tenants.p99 && r.Tenants.p99 <= r.Tenants.p999);
      Alcotest.(check bool) (name ^ ": mean within range") true
        (float_of_int r.Tenants.p50 <= r.Tenants.mean *. 2.0);
      Alcotest.(check int)
        (name ^ ": every rogue probe was denied")
        r.Tenants.rogue_probes r.Tenants.rogue_denied;
      Alcotest.(check int) (name ^ ": no isolation breach") 0
        r.Tenants.isolation_breaches;
      Alcotest.(check bool) (name ^ ": overcommit forced grants") true
        (r.Tenants.grants > 0))
    Backend.all_kinds

let test_tenants_deterministic () =
  List.iter
    (fun kind ->
      let a = Tenants.run (small kind) and b = Tenants.run (small kind) in
      if a <> b then
        Alcotest.failf "%s: two runs of the same config differ"
          (Backend.kind_name kind))
    Backend.all_kinds

let test_tenants_identical_traffic () =
  (* the slot algebra and RNG draws are backend-independent: only
     cycle costs and the fault taxonomy may differ *)
  let runs = List.map (fun k -> Tenants.run (small k)) Backend.all_kinds in
  match runs with
  | r0 :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check int) "same sends" r0.Tenants.sends r.Tenants.sends;
          Alcotest.(check int) "same grants" r0.Tenants.grants
            r.Tenants.grants;
          Alcotest.(check int) "same rogue probes" r0.Tenants.rogue_probes
            r.Tenants.rogue_probes;
          Alcotest.(check int) "same faults" r0.Tenants.faults
            r.Tenants.faults)
        rest
  | [] -> assert false

let test_tenants_config_validation () =
  let bad f =
    match Tenants.run (f (small Backend.Proxy)) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid config accepted"
  in
  bad (fun c -> { c with Tenants.tenants = 0 });
  bad (fun c -> { c with Tenants.slots = 0 });
  bad (fun c -> { c with Tenants.ops = 0 });
  bad (fun c -> { c with Tenants.churn_pct = -1 });
  bad (fun c -> { c with Tenants.churn_pct = 60; evict_pct = 30; rogue_pct = 20 })

let test_percentile_small_samples () =
  let p = Udma_obs.Metrics.nearest_rank in
  Alcotest.(check int) "empty sample" 0 (p [||] 99.9);
  Alcotest.(check int) "singleton p50" 7 (p [| 7 |] 50.);
  Alcotest.(check int) "singleton p999" 7 (p [| 7 |] 99.9);
  let ten = Array.init 10 (fun i -> i + 1) in
  (* nearest rank: ceil(p/100 * 10) gives ranks 5, 10, 10 *)
  Alcotest.(check int) "p50 of 1..10" 5 (p ten 50.);
  Alcotest.(check int) "p99 of 1..10 is the max" 10 (p ten 99.);
  Alcotest.(check int) "p999 of 1..10 is the max" 10 (p ten 99.9);
  (* below 1000 samples p999's rank clamps to n: always the maximum *)
  List.iter
    (fun n ->
      let s = Array.init n (fun i -> 2 * i) in
      Alcotest.(check int)
        (Printf.sprintf "p999 of n=%d is the sample max" n)
        (2 * (n - 1))
        (p s 99.9))
    [ 2; 99; 500; 999 ];
  (* with enough samples the rank pulls back off the maximum *)
  let many = Array.init 10_000 (fun i -> i) in
  Alcotest.(check int) "p999 of n=10000 is rank 9991" 9990 (p many 99.9);
  Alcotest.(check int) "p100 is the max" 9999 (p many 100.)

let test_tenants_fault_paths () =
  List.iter
    (fun kind ->
      let t = Tenants.create (small kind) in
      ignore (Tenants.attach t ~tenant:0);
      (match Tenants.initiate t ~tenant:0 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "attached tenant faulted");
      Tenants.deschedule t ~tenant:0;
      (match Tenants.initiate t ~tenant:0 with
      | Error (Tenants.Invalidated, _) -> ()
      | Ok _ | Error _ ->
          Alcotest.fail "deschedule did not invalidate the latched initiation");
      ignore (Tenants.attach t ~tenant:0);
      ignore (Tenants.revoke_tenant t ~tenant:0);
      (match Tenants.initiate t ~tenant:0 with
      | Error (Tenants.Backend_fault _, _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "revoked tenant did not fault");
      Alcotest.(check bool) "rogue probe denied" true
        (Tenants.rogue_probe t ~rogue:999 ~slot:0);
      Alcotest.(check bool) "oracle clean at the end" true
        (Backend.check (Tenants.backend t) = None))
    Backend.all_kinds

let () =
  Alcotest.run "protect"
    [
      ( "backend",
        [
          Alcotest.test_case "validate_bits matches the old NIPT" `Quick
            test_validate_bits;
          Alcotest.test_case "grant / decode / revoke round-trip" `Quick
            test_grant_revoke;
          Alcotest.test_case "control-path costs per backend" `Quick
            test_control_path_costs;
          Alcotest.test_case "revoke_owner tears down one tenant only" `Quick
            test_revoke_owner;
          Alcotest.test_case "ownership is enforced at initiation" `Quick
            test_owner_enforcement;
          Alcotest.test_case "capability teardown faults as Revoked" `Quick
            test_capability_revoked_fault;
          Alcotest.test_case "IOTLB: hit, miss, LRU eviction" `Quick
            test_iotlb_hit_miss;
          Alcotest.test_case "IOTLB: unmap and remap shoot lines down" `Quick
            test_iotlb_shootdown;
          Alcotest.test_case "P1 (owner skip) is caught by the I5 oracle"
            `Quick test_mutation_owner_skip;
          Alcotest.test_case "P2 (stale revoke) is caught by the I5 oracle"
            `Quick test_mutation_stale_revoke;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "multi-tenant smoke, all backends" `Quick
            test_tenants_smoke;
          Alcotest.test_case "runs are deterministic" `Quick
            test_tenants_deterministic;
          Alcotest.test_case "backends face identical traffic" `Quick
            test_tenants_identical_traffic;
          Alcotest.test_case "config validation" `Quick
            test_tenants_config_validation;
          Alcotest.test_case "nearest-rank p999 on small samples" `Quick
            test_percentile_small_samples;
          Alcotest.test_case "deterministic fault paths" `Quick
            test_tenants_fault_paths;
        ] );
    ]
