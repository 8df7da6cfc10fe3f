(** Vectorized (batch-at-a-time) QGM operators (DESIGN.md §15).

    Each operator consumes and produces {!Column.batch} values; together
    they run every QGM box body. Results agree with {!Eval} and the
    {!Reference} oracle, errors included. *)

exception Error of string

(** Scan a base table through the columnar decode cache, projected to the
    box's columns. Raises [Not_found] on a missing column, like
    [Relation.project]. *)
val exec_base : Db.t -> Qgm.Box.base_body -> Column.batch

(** [exec_select ~child body] — filters, incremental hash joins, output
    projection, DISTINCT. [child] resolves a quantifier to its input
    batch. Output row order is a nested loop's (left-major joins,
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
    typed per-aggregate folds (a DISTINCT aggregate folds each group's
    first occurrence of every non-NULL value); grouping-set cuboids are
    concatenated in declaration order with NULL-padded union columns. A [Filtered] input's
    output expressions are evaluated through its selection, on its live
    rows only. *)
val exec_group : child:(Qgm.Box.quant -> input) -> Qgm.Box.group_body -> Column.batch

(** [exec_union ~child body] — the branches concatenated in order; without
    ALL, the first occurrence of each distinct row. Raises {!Error} when a
    branch's arity differs from the union's. *)
val exec_union :
  child:(Qgm.Box.quant -> Column.batch) -> Qgm.Box.union_body -> Column.batch
