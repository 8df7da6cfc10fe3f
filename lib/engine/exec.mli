(** QGM executor (engine dispatcher).

    Executes a QGM graph directly against a {!Db}: base-table scans,
    select-project-join with incremental hash joins on equality predicates,
    scalar subqueries, DISTINCT, hash aggregation, and multidimensional
    grouping sets (one cuboid per set, NULL-padded to the union of grouping
    columns, per the paper's section 5 semantics). The root's presentation
    (ORDER BY / LIMIT) is applied last.

    Two interchangeable engines implement the operators — vectorized
    columnar ({!Vexec}, the default) and the naive {!Reference} oracle —
    selected per process via [ASTQL_EXEC=vector|reference] or per call
    site via {!with_engine}. Both share one memoized recursion, so budget
    enforcement, metrics, and per-box memoization behave identically;
    results agree bag-wise (enforced by the differential fuzz suite). *)

exception Exec_error of string

type engine =
  | Vector  (** batch-at-a-time over typed columns *)
  | Reference  (** naive oracle operators; testing only *)

(** [engine_of_string "vector" | "reference"] (case-insensitive);
    [None] for anything else. *)
val engine_of_string : string -> engine option

val engine_to_string : engine -> string

(** The process default: [ASTQL_EXEC] at startup, or [Vector]. *)
val default_engine : engine

(** Current engine ({!set_engine} overrides the default). *)
val engine : unit -> engine

val set_engine : engine -> unit

(** [with_engine e f] runs [f] under engine [e], restoring the previous
    engine afterwards (also on exception). The knob is process-global:
    don't interleave with concurrent queries that assume another engine. *)
val with_engine : engine -> (unit -> 'a) -> 'a

(** Execute the graph's root box and apply its presentation. With
    [budget], operator boundaries check the deadline and meter produced
    rows against it, raising {!Govern.Budget.Budget_exhausted} — callers
    that budget execution must be prepared to fall back (the session falls
    back to the unbudgeted base plan). *)
val run : ?budget:Govern.Budget.t -> Db.t -> Qgm.Graph.t -> Data.Relation.t

(** Execute an arbitrary box of the graph (no presentation applied). *)
val run_box :
  ?budget:Govern.Budget.t -> Db.t -> Qgm.Graph.t -> Qgm.Box.box_id ->
  Data.Relation.t
