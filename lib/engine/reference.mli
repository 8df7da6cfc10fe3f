(** A deliberately naive QGM evaluator, kept as simple as possible so that
    its correctness is evident by inspection: nested-loop joins (no hashing,
    no predicate push-down ordering), per-group rescans for aggregation, no
    memoization. It exists solely as a differential-testing oracle for
    {!Exec} — see [test/test_differential.ml]. Quadratic and worse;
    never use it on real data. *)

(** Raised (with the offending box/quantifier/column named) instead of bare
    [Failure] on unbound quantifiers, unknown columns, and scalar
    subqueries of cardinality > 1, so oracle failures in differential tests
    are diagnosable. *)
exception Reference_error of string

val run : Db.t -> Qgm.Graph.t -> Data.Relation.t

(** The oracle's operators, parameterized over child resolution so
    {!Exec}'s dispatcher can run them per box (with memoized children)
    under the [Reference] engine knob. [run] itself stays the plain
    whole-plan recursion described above. *)

val eval_select :
  child:(Qgm.Box.quant -> Data.Relation.t) ->
  Qgm.Box.select_body ->
  Data.Relation.t

val eval_group :
  child:(Qgm.Box.quant -> Data.Relation.t) ->
  Qgm.Box.group_body ->
  Data.Relation.t

val eval_union :
  child:(Qgm.Box.quant -> Data.Relation.t) ->
  Qgm.Box.union_body ->
  Data.Relation.t
