(** Deriving subsumee expressions from subsumer outputs (paper section 6 and
    the aggregate rules of section 4.1.2).

    Derivation is the inverse of translation: pieces of the translated
    expression are collapsed into references to subsumer output columns.
    The cover is greedy top-down — the whole expression is tried against
    every subsumer output before descending — which realizes the paper's
    "minimum number of subsumer QCLs" preference (Figure 5's [amt] derived
    from [value] and [disc] rather than [qty], [price], [disc]). *)

(** [scalar ~equiv ~r_outs t] covers translated expression [t] by the
    subsumer outputs [r_outs]: equal (canonicalized, normalized)
    subexpressions become [Below] references, rejoin leaves become
    [Rejoin], constants stay. [None] when an [Rin] leaf or aggregate
    remains uncovered. *)
val scalar :
  equiv:Mtypes.txref Equiv.t ->
  r_outs:(string * Mtypes.txref Qgm.Expr.t) list ->
  Mtypes.txref Qgm.Expr.t ->
  Mtypes.cref Qgm.Expr.t option

(** Environment for aggregate derivation in GROUP BY patterns. All
    compensation-reference expressions are over [Below] of the
    subsumer-child's outputs (the space of the subsumer's grouping columns
    and aggregate arguments). *)
type group_env = {
  ge_equiv : Mtypes.cref Equiv.t;  (** classes from pulled predicates *)
  ge_cuboid : string list;  (** available subsumer grouping columns *)
  ge_r_aggs : (string * Qgm.Expr.agg * string option) list;
      (** subsumer aggregate outputs: name, aggregate, argument column *)
  ge_arg_nullable : string -> bool;
      (** nullability oracle for subsumer-child output columns *)
  ge_ekey_cols : string list option;
      (** when every subsumee grouping expression is a plain subsumer
          grouping column: those columns (for rule f/g's exactness test) *)
  ge_scalar : bool;
      (** the compensation groups by no key, so it yields one row even over
          no input: re-derived counts must read 0 there, not NULL *)
}

(** [agg_direct env agg arg] — the subsumer aggregate output equal to this
    subsumee aggregate (same function, same DISTINCT, equivalent argument).
    Used when no regrouping happens. *)
val agg_direct :
  group_env -> Qgm.Expr.agg -> Mtypes.cref Qgm.Expr.t option -> string option

(** [agg_regroup env agg arg] — derivation rules (a)-(g) plus algebraic
    combinations (AVG as SUM/COUNT, linear scaling of SUM): an expression
    over [Below] of the subsumer's *outputs*, whose [Agg] nodes are the
    re-aggregations the compensation GROUP BY must perform. *)
val agg_regroup :
  group_env ->
  Qgm.Expr.agg ->
  Mtypes.cref Qgm.Expr.t option ->
  Mtypes.cref Qgm.Expr.t option

(** [restrict_to_cols env cols t] rewrites every [Below] leaf of [t] into an
    equivalent member of [cols] (via the equivalence classes); [None] if
    some leaf has no member there. Rejoin leaves pass through. Used to
    confine expressions to a cuboid's grouping columns (section 5). *)
val restrict_to_cols :
  Mtypes.cref Equiv.t ->
  string list ->
  Mtypes.cref Qgm.Expr.t ->
  Mtypes.cref Qgm.Expr.t option
