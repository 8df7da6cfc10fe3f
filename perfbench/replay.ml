(* The embedded read split of the traced run: a read is re-run through the
   layers' public functions — Parser.parse_script, Builder.build,
   Planner.plan, Exec.run — against a given database state, one span per
   call. The planner is the replay's own, so its cache sees exactly the
   statement stream the workload sends. *)

type plan_info = {
  hit : bool;
  attempted : int;
  filtered : int;
  validated : int;
  rewrote : bool;
}

type t = {
  tracer : Span.t;
  planner : Plancache.Planner.t;
  mutable plans : plan_info list;
}

let create tracer = { tracer; planner = Plancache.Planner.create (); plans = [] }

let query_of = function
  | [ Sqlsyn.Ast.Select q ] -> q
  | _ -> invalid_arg "replay: not a single query"

(* [run t ~op db store sql] replays the read [sql] as operation [op] and
   returns its answer. *)
let run t ~op db store sql =
  let span name ?tag ~parent f = Span.with_span ?tag t.tracer ~op ~parent name f in
  span "replay" ~parent:(-1) (fun root ->
      let stmts =
        span "sqlsyn.parse" ~parent:root (fun _ -> Sqlsyn.Parser.parse_script sql)
      in
      let cat = Engine.Db.catalog db in
      let g =
        span "qgm.build" ~parent:root (fun _ -> Qgm.Builder.build cat (query_of stmts))
      in
      let r =
        span "plancache.plan" ~parent:root
          ~tag:(fun (r : Plancache.Planner.report) -> if r.pr_hit then 1 else 0)
          (fun _ ->
            Plancache.Planner.plan t.planner ~cat ~epoch:(Mvstore.Store.epoch store)
              ~mvs:(Mvstore.Store.rewritable store) g)
      in
      t.plans <-
        {
          hit = r.pr_hit;
          attempted = r.pr_attempted;
          filtered = r.pr_filtered;
          validated = r.pr_validated;
          rewrote = r.pr_steps <> [];
        }
        :: t.plans;
      span "engine.exec" ~parent:root ~tag:Data.Relation.cardinality (fun _ ->
          Engine.Exec.run db r.pr_graph))
