(** The summary-table (AST) store: definitions, materialization, refresh.

    Each summary table is defined by a SQL query, materialized through the
    engine into an ordinary stored table, and registered in the catalog so
    rewritten queries can scan it. Inserts into base tables are folded into
    eligible summary tables incrementally (insert-delta aggregation),
    grouping-set summaries included when each stored row's key identifies
    its grouping set; other summary tables over the changed table turn stale
    and are excluded from rewriting until refreshed (the paper's problem
    (c), after [10]). *)

type merge_fn = M_add | M_min | M_max

type incr_plan = {
  ip_keys : string list;
      (** MV columns that are group keys: the outputs of every column in
          the grouping union. A grouping-set summary qualifies only when its
          sets are pairwise distinct and none rolls up a nullable column,
          so the key tuple (NULL padding included) names the row's set. *)
  ip_aggs : (string * merge_fn) list;    (** MV aggregate columns *)
  ip_count : string option;
      (** a COUNT-star column, when present: required for delete
          maintenance (it detects emptied groups) *)
  ip_delete_safe : bool;
      (** no SUM over a nullable argument (subtraction cannot restore the
          NULL that an all-NULL group requires) and no empty grouping set
          (the grand-total row must outlive its COUNT reaching 0) *)
}

type entry = {
  e_name : string;
  e_sql : string;
  e_graph : Qgm.Graph.t;
  e_cols : (string * Data.Value.ty) list;
  e_tables : string list;        (** base tables the definition reads *)
  e_fresh : bool;
  e_incr : incr_plan option;     (** [None]: full refresh only *)
  e_version : int;
      (** definition version: the store epoch this incarnation of the
          table was last (re)defined or refreshed under — the quarantine
          key, stable across unrelated DML *)
}

type t

val empty : t
val entries : t -> entry list
val find : t -> string -> entry option

(** The store's planning epoch. Every operation that could change a
    routing decision — {!define}, {!drop}, {!refresh_full},
    {!apply_insert}, {!apply_delete}, and (via {!touch}) session-level
    DDL — bumps it; the plan cache refuses to serve a decision stamped
    with any other epoch, so a stale plan is never executed. *)
val epoch : t -> int

(** Bump the epoch without changing the entries (for invalidation events
    the store does not itself observe, e.g. CREATE TABLE). *)
val touch : t -> t

(** Names of entries currently stale (excluded from rewriting until
    refreshed; the maintenance queue's work list). *)
val stale : t -> string list

exception Mv_error of string

(** [define store db ~name ~sql] parses and elaborates the defining query,
    materializes it, registers the result as a catalog table, and stores the
    entry. Raises {!Mv_error} on name clashes or unsupported definitions. *)
val define : t -> Engine.Db.t -> name:string -> sql:string -> t * Engine.Db.t

val drop : t -> Engine.Db.t -> string -> t * Engine.Db.t

(** [restore store db ~name ~sql ~fresh ~rows] re-registers a summary table
    from checkpoint state {e without} executing the defining query: the
    graph, column types and incremental plan are rebuilt from [sql] against
    the recovered catalog, and [rows] become the payload as-is. Raises
    {!Mv_error} on name clashes, an unparseable definition, or a payload
    whose arity disagrees with the definition. The recovery ladder
    (Durable.Manager) verifies restored payloads afterwards and calls
    {!quarantine_payload} on mismatch. *)
val restore :
  t -> Engine.Db.t -> name:string -> sql:string -> fresh:bool ->
  rows:Data.Relation.row list -> t * Engine.Db.t

(** Degraded recovery: empty a summary table's payload and mark it stale,
    excluding it from rewriting until a refresh rebuilds it. *)
val quarantine_payload : t -> Engine.Db.t -> string -> t * Engine.Db.t

(** Recompute a summary table from scratch, mark it fresh and move its
    definition version (voiding quarantine observations against the old
    contents). Hits the [Refresh] fault-injection point. With [budget],
    the recomputation is metered ({!Engine.Exec.run}) and may raise
    [Budget_exhausted] — the caller (the maintenance drain) defers the
    refresh rather than failing it. *)
val refresh_full :
  ?budget:Govern.Budget.t -> t -> Engine.Db.t -> string -> t * Engine.Db.t

(** [apply_insert store db ~table ~rows] must be called *before* the rows
    are added to [table]: summary tables with an incremental plan absorb the
    delta; others over [table] become stale. The third component names the
    entries that {e newly} went stale (the maintenance queue's input). *)
val apply_insert :
  t -> Engine.Db.t -> table:string -> rows:Data.Relation.row list ->
  t * Engine.Db.t * string list

(** [apply_delete store db ~table ~rows] must be called with the deleted
    rows *before* they are removed from [table]. Summary tables whose plan
    has only subtractable aggregates (COUNT/SUM), a COUNT-star column and
    no empty grouping set absorb the delta (groups whose count reaches zero
    disappear); MIN/MAX summaries, grand totals and non-incremental ones
    become stale. The third component
    names the entries that {e newly} went stale. *)
val apply_delete :
  t -> Engine.Db.t -> table:string -> rows:Data.Relation.row list ->
  t * Engine.Db.t * string list

(** Fresh summary tables, packaged for the rewriter. *)
val rewritable : t -> Astmatch.Rewrite.mv list
