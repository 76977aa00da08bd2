module Metrics = Udma_obs.Metrics
module Trace = Udma_sim.Trace
module Engine = Udma_sim.Engine
module Mmu = Udma_mmu.Mmu
module Udma_engine = Udma.Udma_engine
module M = Machine

let spawn m ~name =
  let proc = Proc.make ~pid:m.M.next_pid ~name in
  m.M.next_pid <- m.M.next_pid + 1;
  m.M.procs <- m.M.procs @ [ proc ];
  m.M.runq <- m.M.runq @ [ proc ];
  if m.M.current = None then begin
    proc.Proc.state <- Proc.Running;
    m.M.current <- Some proc
  end;
  proc

let current m = m.M.current

let switch_to m proc =
  match m.M.current with
  | Some cur when cur == proc -> ()
  | cur ->
      (* A switch is kernel work even when triggered mid-user-reference
         by preemption. *)
      Machine.charge_as m Engine.Profiler.Kernel
        m.M.costs.Cost_model.context_switch;
      Metrics.bump m.M.os.M.sched_switches;
      (* I1: invalidate any partially initiated UDMA sequence with a
         single STORE of a negative count to a proxy address *)
      Option.iter Udma_engine.invalidate m.M.udma;
      Mmu.flush_tlb m.M.mmu;
      (match cur with
      | Some c when c.Proc.state = Proc.Running -> c.Proc.state <- Proc.Ready
      | Some _ | None -> ());
      proc.Proc.state <- Proc.Running;
      m.M.current <- Some proc;
      Trace.record m.M.trace ~time:(Engine.now m.M.engine)
        Udma_obs.Event.Sched
        (Udma_obs.Event.Context_switch { pid = proc.Proc.pid });
      (match m.M.on_switch with Some f -> f m | None -> ())

let ready m =
  List.filter (fun p -> p.Proc.state <> Proc.Exited) m.M.runq

let preempt m =
  match (m.M.current, ready m) with
  | _, [] | _, [ _ ] -> ()
  | Some cur, rq -> (
      (* rotate: next after current, wrapping *)
      let rec next = function
        | [] -> List.hd rq
        | p :: rest -> if p == cur then (match rest with q :: _ -> q | [] -> List.hd rq) else next rest
      in
      match next rq with p -> switch_to m p)
  | None, p :: _ -> switch_to m p

let set_preempt_hook m hook = m.M.preempt_hook <- hook

let maybe_preempt m =
  match m.M.preempt_hook with
  | Some hook -> if hook m then preempt m
  | None -> ()

let exit_proc m proc =
  proc.Proc.state <- Proc.Exited;
  m.M.runq <- List.filter (fun p -> not (p == proc)) m.M.runq;
  match m.M.current with
  | Some cur when cur == proc ->
      m.M.current <- None;
      (match ready m with p :: _ -> switch_to m p | [] -> ())
  | Some _ | None -> ()
