(** QGM executor (engine dispatcher).

    Executes a QGM graph directly against a {!Db}: base-table scans,
    select-project-join with incremental hash joins on equality predicates,
    scalar subqueries, DISTINCT, hash aggregation, and multidimensional
    grouping sets (one cuboid per set, NULL-padded to the union of grouping
    columns, per the paper's section 5 semantics). The root's presentation
    (ORDER BY / LIMIT) is applied last.

    Two interchangeable engines implement the operators — vectorized
    columnar ({!Vexec}, the default) and the naive {!Reference} oracle —
    selected per call through [?engine] (a session passes its knobs'
    engine; the default is {!engine}). Both share one memoized recursion,
    so budget enforcement, metrics, and per-box memoization behave
    identically; results agree bag-wise (enforced by the differential fuzz
    suite). *)

exception Exec_error of string

(** The process default engine: [ASTQL_EXEC] as parsed by
    {!Govern.Knobs.process}. Read-only; a session passes its own. *)
val engine : unit -> Govern.Knobs.engine

val engine_to_string : Govern.Knobs.engine -> string

(** Execute the graph's root box and apply its presentation. With
    [budget], operator boundaries check the deadline and meter produced
    rows against it, raising {!Govern.Budget.Budget_exhausted} — callers
    that budget execution must be prepared to fall back (the session falls
    back to the unbudgeted base plan). [engine] defaults to {!engine}. *)
val run :
  ?budget:Govern.Budget.t -> ?engine:Govern.Knobs.engine -> Db.t ->
  Qgm.Graph.t -> Data.Relation.t

(** Execute an arbitrary box of the graph (no presentation applied). *)
val run_box :
  ?budget:Govern.Budget.t -> ?engine:Govern.Knobs.engine -> Db.t ->
  Qgm.Graph.t -> Qgm.Box.box_id -> Data.Relation.t
