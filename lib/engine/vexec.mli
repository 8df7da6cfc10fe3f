(** Vectorized (batch-at-a-time) QGM operators (DESIGN.md §15).

    Each operator consumes and produces {!Column.batch} values. The
    dispatcher in {!Exec} calls {!box_supported} per box and falls back to
    the row interpreter for anything outside the vectorized subset
    (DISTINCT aggregates, CASE expressions, UNION bodies), so engines mix
    freely within one plan. *)

exception Error of string

(** Hash table keyed by value lists, honoring SQL grouping equality (NULL
    groups with NULL; Int and Float compare numerically). *)
module VH : Hashtbl.S with type key = Data.Value.t list

(** Can this box body run on the vectorized path? *)
val box_supported : Qgm.Box.body -> bool

(** Scan a base table through the columnar decode cache, projected to the
    box's columns. Raises [Not_found] on a missing column, like the row
    engine's [Relation.project]. *)
val exec_base : Db.t -> Qgm.Box.base_body -> Column.batch

(** [exec_select ~child body] — filters, incremental hash joins, output
    projection, DISTINCT. [child] resolves a quantifier to its input
    batch. Output row order matches the row engine (left-major joins,
    build-side order within a probe match). *)
val exec_select :
  child:(Qgm.Box.quant -> Column.batch) -> Qgm.Box.select_body -> Column.batch

(** A select box run up to, but not including, its output projection: the
    rows its predicates keep, as a selection over its working set, and its
    output expressions. *)
type filtered

(** [exec_select_filtered ~child body] — {!exec_select} without the
    projection, for a consumer that evaluates the outputs itself.
    [body] must not be DISTINCT. *)
val exec_select_filtered :
  child:(Qgm.Box.quant -> Column.batch) -> Qgm.Box.select_body -> filtered

(** Rows the select keeps. *)
val filtered_rows : filtered -> int

(** The select's result, as {!exec_select} would have returned it. *)
val materialize : filtered -> Column.batch

(** A group box's input: a batch, or a select handed over unprojected. *)
type input = Batch of Column.batch | Filtered of filtered

(** [exec_group ~child body] — dense group ids in first-seen order, then
    typed per-aggregate folds; grouping-set cuboids are concatenated in
    declaration order with NULL-padded union columns. A [Filtered] input's
    output expressions are evaluated through its selection, on its live
    rows only. *)
val exec_group : child:(Qgm.Box.quant -> input) -> Qgm.Box.group_body -> Column.batch
