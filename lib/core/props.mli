(** Derived semantic properties of QGM boxes.

    The aggregate-derivation rules (paper section 4.1.2) need nullability
    facts ("COUNT(z) where z is non-nullable may stand in for COUNT(*)"),
    and the rejoin rules need key facts for 1:N joins. Analyses are
    conservative. Nullability itself is {!Qgm.Typing.column_nullable}. *)

(** [base_table_of g box] — when [box] is a base-table leaf, its table
    name. *)
val base_table_of : Qgm.Graph.t -> Qgm.Box.box_id -> string option

(** [cols_are_key cat g box cols] — do [cols] contain a unique key of the
    relation produced by [box]? True when the box is a base table whose
    declared key is covered, or a GROUP BY box whose simple grouping
    columns are covered. *)
val cols_are_key : Catalog.t -> Qgm.Graph.t -> Qgm.Box.box_id -> string list -> bool
