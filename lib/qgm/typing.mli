(** Lightweight output-type inference for QGM graphs.

    Used to register materialized summary tables in the catalog with
    sensible column types. Falls back to [Tfloat] for arithmetic over mixed
    numerics and to [Tstr] when nothing better is known. *)

val infer_outputs : Catalog.t -> Graph.t -> (string * Data.Value.ty) list

(** Type of one output column of a box. Lenient: unknown tables, columns
    or boxes come back as [Tstr]. *)
val col_type : Catalog.t -> Graph.t -> Box.box_id -> string -> Data.Value.ty

(** Type of an expression evaluated in a box that declares [quants].
    Same leniency as {!col_type}; used by the static validator to flag
    predicates that are definitely non-boolean. *)
val expr_type :
  Catalog.t -> Graph.t -> Box.quant list -> Box.qref Expr.t -> Data.Value.ty

(** [column_nullable cat g box col] — can the named output column of [box]
    in graph [g] ever be NULL? Conservative: a column is nullable unless
    provably not, and a computed column is nullable when an input is. *)
val column_nullable : Catalog.t -> Graph.t -> Box.box_id -> string -> bool

(** Nullability of an expression evaluated in a box that declares
    [quants], by the rules of {!column_nullable}. *)
val expr_nullable :
  Catalog.t -> Graph.t -> Box.quant list -> Box.qref Expr.t -> bool
