(** Predicate subsumption (paper section 4.1.1, footnote 4).

    [p1] subsumes [p2] when every row eliminated by [p1] is also eliminated
    by [p2] — e.g. [x > 10] subsumes [x > 20]. Used on predicates already
    translated into a common reference space and canonicalized. *)

(** The unknown-type oracle: no bound normalization. *)
val no_ty : 'c -> Data.Value.ty option

(** [subsumes ~prove ~ty ~weak ~strong] — does [weak] subsume [strong]?
    Recognizes syntactic equality (after normalization), constant
    relaxation of comparisons over the same expression, and — when [prove]
    is not [Prove_off] — anything the static prover can certify ([weak]
    entailed by [strong] as single-predicate conjunctions, e.g. an equality
    inside a range).

    [ty] is a column-type oracle; when it identifies an INT or DATE typed
    column, strict and non-strict bounds on adjacent points compare equal
    ([x > 9] vs [x >= 10]). Pass {!no_ty} when types are unavailable. *)
val subsumes :
  prove:Govern.Knobs.prove ->
  ty:('c -> Data.Value.ty option) ->
  weak:'c Qgm.Expr.t -> strong:'c Qgm.Expr.t -> bool
