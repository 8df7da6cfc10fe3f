type decision =
  | No_rewrite
  | Rewrite of Qgm.Graph.t * Astmatch.Rewrite.step list

type entry = {
  en_decision : decision;
  en_attempted : int;
  en_filtered : int;
  en_quarantined : int;
}

type t = {
  p_knobs : Govern.Knobs.t;
  p_cache : entry Cache.t;
  p_stats : Stats.t;
  p_quarantine : Guard.Quarantine.t;
  mutable p_index : Candidates.t;
  mutable p_index_epoch : int;
}

type report = {
  pr_graph : Qgm.Graph.t;
  pr_steps : Astmatch.Rewrite.step list;
  pr_hit : bool;
  pr_fingerprint : string;
  pr_attempted : int;
  pr_filtered : int;
  pr_quarantined : int;
  pr_errors : Guard.Error.t list;
  pr_degraded : Govern.Budget.reason option;
  pr_validated : int;  (* static validator runs during this planning *)
}

let create ?(knobs = Govern.Knobs.process ()) ?(capacity = 256)
    ?quarantine_capacity () =
  {
    p_knobs = knobs;
    p_cache = Cache.create ~capacity;
    p_stats = Stats.create ();
    p_quarantine = Guard.Quarantine.create ?capacity:quarantine_capacity ();
    p_index = Candidates.build [];
    p_index_epoch = min_int;
  }

let stats t = t.p_stats
let cache_length t = Cache.length t.p_cache
let quarantine_length t = Guard.Quarantine.entries t.p_quarantine

let quarantine t ~fp mvs =
  List.iter
    (fun (mv, version) ->
      if Guard.Quarantine.add t.p_quarantine ~version ~fp ~mv then
        t.p_stats.Stats.quarantined <- t.p_stats.Stats.quarantined + 1)
    mvs;
  (* the cached decision (if any) embeds the now-discredited candidate *)
  Cache.remove t.p_cache fp

let versions_of (mvs : Astmatch.Rewrite.mv list) =
  List.map (fun (mv : Astmatch.Rewrite.mv) -> (mv.mv_name, mv.mv_version)) mvs

let index t ~epoch mvs =
  if t.p_index_epoch <> epoch then begin
    t.p_index <- Candidates.build mvs;
    t.p_index_epoch <- epoch
  end;
  t.p_index

let classify t ~cat ~epoch ~mvs g = Candidates.eligible (index t ~epoch mvs) cat g

let report_of g fp ~hit ~errors ?(validated = 0) (e : entry) =
  let graph, steps =
    match e.en_decision with
    | No_rewrite -> (g, [])
    | Rewrite (g', steps) -> (g', steps)
  in
  {
    pr_graph = graph;
    pr_steps = steps;
    pr_hit = hit;
    pr_fingerprint = fp;
    pr_attempted = e.en_attempted;
    pr_filtered = e.en_filtered;
    pr_quarantined = e.en_quarantined;
    pr_errors = errors;
    pr_degraded = None;
    pr_validated = validated;
  }

let m_requests = Obs.Metrics.counter "plan.requests"
let m_hits = Obs.Metrics.counter "plan.cache_hits"
let m_misses = Obs.Metrics.counter "plan.cache_misses"
let m_rewrites = Obs.Metrics.counter "plan.rewrites"
let m_filtered = Obs.Metrics.counter "plan.filtered"
let m_quarantine_skips = Obs.Metrics.counter "plan.quarantine_skips"
let m_errors = Obs.Metrics.counter "plan.contained_errors"
let m_plan_ms = Obs.Metrics.histogram "plan.ms"
let m_degraded = Obs.Metrics.counter "govern.degraded_plans"
let m_lint_runs = Obs.Metrics.counter "lint.validate.runs"
let m_lint_final = Obs.Metrics.counter "lint.final_rejects"

let plan_raw ?trace ?budget t ~cat ~epoch ~mvs g =
  let st = t.p_stats in
  let fp = Qgm.Fingerprint.of_graph g in
  match Cache.find t.p_cache ~epoch fp with
  | Cache.Hit e ->
      st.Stats.hits <- st.Stats.hits + 1;
      Obs.Metrics.incr m_hits;
      Obs.Trace.accept trace ~kind:"cache" ~label:fp "hit";
      report_of g fp ~hit:true ~errors:[] e
  | (Cache.Stale | Cache.Absent) as l ->
      if l = Cache.Stale then st.Stats.invalidated <- st.Stats.invalidated + 1;
      st.Stats.misses <- st.Stats.misses + 1;
      Obs.Metrics.incr m_misses;
      let versions = versions_of mvs in
      let kept, skipped = classify t ~cat ~epoch ~mvs g in
      let held_names = Guard.Quarantine.blocked t.p_quarantine ~versions ~fp in
      let kept, held =
        List.partition
          (fun (mv : Astmatch.Rewrite.mv) ->
            not (List.mem mv.mv_name held_names))
          kept
      in
      List.iter
        (fun (mv : Astmatch.Rewrite.mv) ->
          Obs.Trace.reject trace ~kind:"candidate" ~label:mv.mv_name
            Obs.Trace.Filtered_by_index)
        skipped;
      List.iter
        (fun (mv : Astmatch.Rewrite.mv) ->
          Obs.Trace.reject trace ~kind:"candidate" ~label:mv.mv_name
            Obs.Trace.Quarantined)
        held;
      st.Stats.quarantine_skips <-
        st.Stats.quarantine_skips + List.length held;
      st.Stats.attempted <- st.Stats.attempted + List.length kept;
      st.Stats.filtered <- st.Stats.filtered + List.length skipped;
      Obs.Metrics.add m_filtered (List.length skipped);
      Obs.Metrics.add m_quarantine_skips (List.length held);
      (* contained failures: the offending summary table is quarantined for
         this fingerprint and planning continues with the others *)
      let errors = ref [] in
      let on_error mv_name exn =
        let err = Guard.Error.classify ~stage:Guard.Error.Match ~mv:mv_name exn in
        errors := err :: !errors;
        st.Stats.rw_errors <- st.Stats.rw_errors + 1;
        Obs.Metrics.incr m_errors;
        Obs.Trace.reject trace ~kind:"candidate" ~label:mv_name
          (Obs.Trace.Contained_error (Guard.Error.to_string err));
        match List.assoc_opt mv_name versions with
        | Some version ->
            if Guard.Quarantine.add t.p_quarantine ~version ~fp ~mv:mv_name
            then st.Stats.quarantined <- st.Stats.quarantined + 1
        | None -> ()
      in
      let v_runs0 = Obs.Metrics.counter_value m_lint_runs in
      let decision =
        match
          Astmatch.Rewrite.best ~cat ~on_error ?trace ?budget ~knobs:t.p_knobs
            g kept
        with
        | None -> No_rewrite
        | Some (g', steps) ->
            Obs.Metrics.incr m_rewrites;
            Rewrite (g', steps)
      in
      (* final-plan static check (validation not off): a rewritten plan
         that fails validation never executes — its summaries are
         quarantined and the query degrades to the base plan. Candidates
         were already checked individually at level 2, so at that level
         this is a cheap re-check of the winner. *)
      let decision =
        match decision with
        | Rewrite (g', steps) when t.p_knobs.validate <> Govern.Knobs.Validate_off
          -> (
            match Lint.Validate.check ~cat g' with
            | [] -> decision
            | vs ->
                Obs.Metrics.incr m_lint_final;
                let msg = Lint.Validate.summary vs in
                let mv0 =
                  match steps with
                  | (s : Astmatch.Rewrite.step) :: _ -> Some s.used_mv
                  | [] -> None
                in
                errors :=
                  {
                    Guard.Error.err_stage = Guard.Error.Validate;
                    err_kind = Guard.Error.Ill_formed msg;
                    err_mv = mv0;
                  }
                  :: !errors;
                st.Stats.rw_errors <- st.Stats.rw_errors + 1;
                Obs.Metrics.incr m_errors;
                Obs.Trace.reject trace ~kind:"plan" ~label:"final plan"
                  (Obs.Trace.Ir_invalid msg);
                List.iter
                  (fun (s : Astmatch.Rewrite.step) ->
                    match List.assoc_opt s.used_mv versions with
                    | Some version ->
                        if
                          Guard.Quarantine.add t.p_quarantine ~version ~fp
                            ~mv:s.used_mv
                        then
                          st.Stats.quarantined <- st.Stats.quarantined + 1
                    | None -> ())
                  steps;
                No_rewrite)
        | _ -> decision
      in
      let validated = Obs.Metrics.counter_value m_lint_runs - v_runs0 in
      (* a contained failure that left the query unrewritten is a fallback
         to the base plan; if another AST still served it, it is not *)
      if !errors <> [] && decision = No_rewrite then
        st.Stats.fallbacks <- st.Stats.fallbacks + 1;
      let e =
        {
          en_decision = decision;
          en_attempted = List.length kept;
          en_filtered = List.length skipped;
          en_quarantined = List.length held;
        }
      in
      let degraded = Option.bind budget Govern.Budget.exhausted in
      (* a budget-truncated decision is best-so-far, not the planner's
         answer for this query: serving it again from the cache would make
         a transient resource shortage permanent, so it is never stored *)
      if degraded = None then begin
        st.Stats.evicted <- st.Stats.evicted + Cache.put t.p_cache ~epoch fp e;
        st.Stats.inserted <- st.Stats.inserted + 1
      end
      else begin
        st.Stats.degraded <- st.Stats.degraded + 1;
        Obs.Metrics.incr m_degraded;
        Obs.Trace.event trace ~kind:"budget"
          ~label:
            (Printf.sprintf "degraded: %s"
               (Govern.Budget.reason_name (Option.get degraded)))
      end;
      { (report_of g fp ~hit:false ~errors:(List.rev !errors) ~validated e) with
        pr_degraded = degraded }

let base_report g ~errors ~degraded =
  {
    pr_graph = g;
    pr_steps = [];
    pr_hit = false;
    pr_fingerprint = "";
    pr_attempted = 0;
    pr_filtered = 0;
    pr_quarantined = 0;
    pr_errors = errors;
    pr_degraded = degraded;
    pr_validated = 0;
  }

let plan ?trace ?budget t ~cat ~epoch ~mvs g =
  (* the outer sandbox: even a failure outside any one candidate
     (fingerprinting, the candidate index, base-graph costing, the cache
     itself) degrades to the unrewritten plan, never to an exception *)
  Obs.Metrics.incr m_requests;
  match
    Obs.Metrics.time m_plan_ms (fun () ->
        Guard.Sandbox.protect ~stage:Guard.Error.Plan (fun () ->
            Obs.Trace.with_span trace ~kind:"plan" ~label:""
              ~result:(fun r ->
                match r.pr_steps with
                | [] -> Obs.Trace.Step
                | steps ->
                    Obs.Trace.Accepted
                      (Printf.sprintf "rewritten via %s"
                         (String.concat ", "
                            (List.map
                               (fun (s : Astmatch.Rewrite.step) -> s.used_mv)
                               steps))))
              (fun () -> plan_raw ?trace ?budget t ~cat ~epoch ~mvs g)))
  with
  | Ok r -> r
  | Error err ->
      let st = t.p_stats in
      st.Stats.rw_errors <- st.Stats.rw_errors + 1;
      st.Stats.fallbacks <- st.Stats.fallbacks + 1;
      base_report g ~errors:[ err ] ~degraded:None
  | exception Govern.Budget.Budget_exhausted reason ->
      (* belt and braces: Rewrite.best already absorbs exhaustion, so this
         only triggers if a budget check fires outside the routing loop —
         still a graceful base-plan degradation, never an error *)
      let st = t.p_stats in
      st.Stats.degraded <- st.Stats.degraded + 1;
      Obs.Metrics.incr m_degraded;
      base_report g ~errors:[] ~degraded:(Some reason)
