module Report = Udma_obs.Report
module Backend = Udma_protect.Backend
module Tenants = Udma_protect.Tenants
open Experiment

(* E14: multi-tenant protection backends. Tenant counts sweep from
   comfortable (8 tenants over 64 table slots) to heavy overcommit
   (1024 tenants churning the same 64 slots), and every backend faces
   the identical traffic: the per-op RNG decisions depend only on the
   seed and the injection rates, never on the backend, so the rows
   differ purely in protection-path cycle costs and fault taxonomy.
   Proxy pays only at grant time (syscall + proxy fault on recovery);
   the IOMMU pays the IOTLB walk on cold initiations and map/unmap on
   churn; capabilities pay a per-transfer check plus grant/revoke.
   One row per (backend, tenant count): initiation p50/p99/p999, the
   recovered-fault rate, rogue probes denied, grant and invalidation
   traffic, the IOTLB hit rate (IOMMU rows) and the isolation-breach
   count (always 0).

   The harness runs on its own defaults (64 table slots, 20k ops, churn
   8 %, evict 4 %, rogue 4 %); every field but the swept backend and
   tenant count is a flag. *)
let e14_tenants = Tenants.default_config

let report_tenants ~tenant_counts ~kinds (cfg : Tenants.config) =
  (* rates the model refuses stop the sweep before any point runs *)
  Result.iter_error (fun msg -> raise (Udma_traffic.Sweep.Invalid_config msg))
    (Tenants.validate cfg);
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun tenants ->
            let r = Tenants.run { cfg with Tenants.kind; tenants } in
            let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b in
            [
              ("backend", vs (Backend.kind_name kind));
              ("tenants", vi tenants);
              ("sends", vi r.Tenants.sends);
              ("p50", vi r.Tenants.p50);
              ("p99", vi r.Tenants.p99);
              ("p999", vi r.Tenants.p999);
              ("mean", vf r.Tenants.mean);
              ("fault_pct", vf (pct r.Tenants.faults r.Tenants.sends));
              ("rogue_probes", vi r.Tenants.rogue_probes);
              ("rogue_denied", vi r.Tenants.rogue_denied);
              ("grants", vi r.Tenants.grants);
              ("invalidations", vi r.Tenants.invalidations);
              ( "iotlb_hit_pct",
                vf (pct r.Tenants.iotlb_hits
                      (r.Tenants.iotlb_hits + r.Tenants.iotlb_misses)) );
              ("breaches", vi r.Tenants.isolation_breaches);
            ])
          tenant_counts)
      kinds
  in
  Report.make ~id:"e14_tenants"
    ~title:
      (Printf.sprintf
         "E14: multi-tenant protection backends — initiation cost, fault \
          rate and invalidation traffic over %d table slots"
         cfg.slots)
    ~meta:
      [
        ("slots", vi cfg.slots);
        ("ops", vi cfg.ops);
        ("churn_pct", vi cfg.churn_pct);
        ("evict_pct", vi cfg.evict_pct);
        ("rogue_pct", vi cfg.rogue_pct);
        ("seed", vi cfg.seed);
      ]
    ~columns:
      [
        ("backend", "backend");
        ("tenants", "tenants");
        ("p50", "p50");
        ("p99", "p99");
        ("p999", "p999");
        ("fault_pct", "fault %");
        ("rogue_denied", "denied");
        ("grants", "grants");
        ("invalidations", "invals");
        ("iotlb_hit_pct", "IOTLB hit %");
        ("breaches", "breaches");
      ]
    rows

let e14 =
  {
    exp_name = "tenants";
    exp_alias = "e14";
    exp_doc =
      "E14: multi-tenant protection — proxy vs IOMMU vs capability \
       initiation cost and fault rate under tenant churn.";
    exp_run =
      Param.(
        let+ kinds =
          v "backend"
            (List (Parsed (Backend.parse_kind, Backend.kind_name)))
            ~docv:"KIND,..."
            ~doc:
              "Protection backends to sweep: $(b,proxy), $(b,iommu), \
               $(b,capability)."
            Backend.all_kinds
        and+ tenant_counts =
          v "tenants" (List Int) ~docv:"N,..." ~doc:"Tenant counts to sweep."
            ~quick:[ 8; 256 ] ~check:all_positive [ 8; 64; 256; 1024 ]
        and+ slots =
          v "slots" Int ~docv:"N"
            ~doc:"Destination-table slots shared by all tenants." ~check:positive
            e14_tenants.slots
        and+ ops =
          v "ops" Int ~docv:"N"
            ~doc:"Operations per (backend, tenant count) point." ~quick:4000
            ~check:positive e14_tenants.ops
        and+ churn_pct =
          v "churn" Int ~docv:"PCT"
            ~doc:"Per-op probability of descheduling a tenant (%)."
            e14_tenants.churn_pct
        and+ evict_pct =
          v "evict" Int ~docv:"PCT"
            ~doc:"Per-op probability of evicting a table slot (%)."
            e14_tenants.evict_pct
        and+ rogue_pct =
          v "rogue" Int ~docv:"PCT"
            ~doc:"Per-op probability of a rogue cross-tenant probe (%)."
            e14_tenants.rogue_pct
        in
        fun ~quick:_ ~seed ->
          [
            report_tenants ~tenant_counts ~kinds
              { e14_tenants with slots; ops; churn_pct; evict_pct; rogue_pct; seed };
          ]);
    exp_anchors =
      List.concat_map
        (fun backend ->
          List.map
            (fun (field, tenants) ->
              anchor
                (Printf.sprintf "e14.%s@%s.t%d" field backend tenants)
                "e14_tenants"
                (Report.Row
                   [ ("backend", backend); ("tenants", string_of_int tenants) ])
                field)
            [ ("p50", 8); ("p99", 256) ])
        [ "proxy"; "iommu"; "capability" ];
  }
