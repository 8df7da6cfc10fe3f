(** An in-memory database: a catalog plus one typed column batch per table.

    Functional updates; callers thread the value (the CLI session holds a
    ref). Summary-table contents live here too, under their table name.
    Each table is stored once, as {!Column.batch} encoded by the exact rule
    ({!Column.of_values_exact}); rows are a view built on demand. *)

type t

val create : Catalog.t -> t
val catalog : t -> Catalog.t
val with_catalog : t -> Catalog.t -> t

(** [put db name rel] encodes a table's rows, installs or replaces its
    contents, and refreshes its statistics. *)
val put : t -> string -> Data.Relation.t -> t

(** [append db name rows] — the table's contents (empty, with the
    catalog's columns, when it has none) followed by [rows]: the same
    stored columns as {!put} of the concatenation, without re-encoding the
    existing rows (see {!Column.append}), and statistics refreshed by the
    same rule. Raises [Invalid_argument] on a row of the wrong width. *)
val append : t -> string -> Data.Relation.row list -> t

(** [select db name rows] keeps the rows of the table at the indices
    [rows], in that order (see {!Column.take}), and refreshes its
    statistics. Raises [Invalid_argument] when the table has no contents. *)
val select : t -> string -> int array -> t

(** The stored columns, as the vectorized executor scans them. Raises
    [Invalid_argument] when the table has no contents. *)
val batch : t -> string -> Column.batch

(** Row view of a table's contents, built on each call. *)
val get : t -> string -> Data.Relation.t option

(** {!get}, raising [Invalid_argument] when the table has no contents. *)
val get_exn : t -> string -> Data.Relation.t

(** Row count of a table's contents, with no row view built. *)
val cardinality : t -> string -> int option

val drop : t -> string -> t

(** [of_tables cat tables] bulk-loads [(name, relation)] pairs. *)
val of_tables : Catalog.t -> (string * Data.Relation.t) list -> t
