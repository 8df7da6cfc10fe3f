(** Query rewriting: materializing a match as a new QGM graph, and routing a
    query across the registered summary tables.

    The subsumee box is replaced in place: its body becomes the top of the
    compensation stack, whose leaf is a scan of the materialized summary
    table; rejoined children keep pointing at the original query subgraph.
    Parents (and the root/presentation) are untouched because the box keeps
    its identity and its output columns. *)

type mv = {
  mv_name : string;          (** table name under which the AST is stored *)
  mv_graph : Qgm.Graph.t;    (** the AST's defining query *)
  mv_version : int;          (** store epoch at definition/refresh; used to
                                 key quarantine observations to one
                                 incarnation of the table *)
}

type step = {
  used_mv : string;
  target : Qgm.Box.box_id;
  exact : bool;              (** empty compensation *)
  proved : Prove.status;     (** static certificate from the match *)
}

(** Combined certificate of an applied plan: [Proved] iff every step is;
    otherwise the first step's reason. *)
val steps_proof : step list -> Prove.status

(** [apply ~query ~target ~result ~mv_table ~mv_cols] builds the rewritten
    graph for one match. [mv_cols] are the stored table's columns (the AST
    root's outputs). *)
val apply :
  query:Qgm.Graph.t ->
  target:Qgm.Box.box_id ->
  result:Mtypes.result ->
  mv_table:string ->
  mv_cols:string list ->
  Qgm.Graph.t

(** [best ~cat query mvs] routes [query] through the available summary
    tables: among all matches of all ASTs, repeatedly applies the one with
    the lowest {!Cost.graph_cost} while it strictly improves on the current
    graph (the iterative multi-AST process of section 7; the same AST may
    answer several query blocks). Returns the rewritten graph and the
    applied steps; [None] when no AST matches or no rewrite is cheaper.

    With [on_error], any exception raised while judging one summary table
    (navigation, matching, compensation construction, translation, costing
    its candidates) is passed to [on_error mv_name exn] and that summary
    table simply contributes no candidates — the others are still tried
    and no exception escapes (except [Out_of_memory]/[Sys.Break]).
    Without it, exceptions propagate unchanged.

    With [trace], the whole routing attempt is recorded as a span tree
    (candidate -> navigate -> match -> compensation -> cost), every
    rejection carrying a typed {!Obs.Trace.reason}.

    With [budget], match invocations and candidates are metered; when the
    budget runs out mid-routing the best rewrite found so far is returned
    (or [None] if none was reached) — the exhaustion reason stays recorded
    on the budget ({!Govern.Budget.exhausted}) so the caller can mark the
    decision degraded. [Budget_exhausted] never escapes [best].

    [knobs] (default {!Govern.Knobs.process}) reaches the match patterns
    through the matching context; at [Every_candidate] validation each
    candidate graph is checked by {!Lint.Validate} before it is costed. *)
val best :
  cat:Catalog.t ->
  ?on_error:(string -> exn -> unit) ->
  ?trace:Obs.Trace.t ->
  ?budget:Govern.Budget.t ->
  ?knobs:Govern.Knobs.t ->
  Qgm.Graph.t ->
  mv list ->
  (Qgm.Graph.t * step list) option
