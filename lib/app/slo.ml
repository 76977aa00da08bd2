type stats = {
  count : int;
  mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
  max : int;
}

let empty_stats =
  { count = 0; mean = 0.0; p50 = 0; p95 = 0; p99 = 0; p999 = 0; max = 0 }

let stats_of latencies =
  let n = Array.length latencies in
  if n = 0 then empty_stats
  else begin
    let sorted = Array.copy latencies in
    Array.stable_sort Int.compare sorted;
    {
      count = n;
      mean = float_of_int (Array.fold_left ( + ) 0 sorted) /. float_of_int n;
      p50 = Udma_obs.Metrics.nearest_rank sorted 50.0;
      p95 = Udma_obs.Metrics.nearest_rank sorted 95.0;
      p99 = Udma_obs.Metrics.nearest_rank sorted 99.0;
      p999 = Udma_obs.Metrics.nearest_rank sorted 99.9;
      max = sorted.(n - 1);
    }
  end

let default_slo = 5.0

let detect_knee ?(slo = default_slo) points =
  if not (slo > 0.0) then invalid_arg "Slo.detect_knee: slo must be > 0";
  match points with
  | [] -> None
  | (_, first) :: _ when first.count = 0 -> None
  | (_, first) :: _ ->
      let budget = slo *. float_of_int first.p50 in
      let violates (_, s) = s.count > 0 && float_of_int s.p99 > budget in
      (* first point of SUSTAINED violation: every later point must
         violate too (one lucky load mid-curve resets the candidate),
         mirroring Udma_traffic.Sweep.detect_knee *)
      let rec go i candidate = function
        | [] -> candidate
        | p :: rest ->
            if violates p then
              go (i + 1) (if candidate = None then Some i else candidate) rest
            else go (i + 1) None rest
      in
      go 0 None points
