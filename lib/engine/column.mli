(** Typed column vectors: the stored form of every table and summary
    ({!Db}) and the executor's batches (DESIGN.md §15).

    A column holds one unboxed buffer per runtime type — an int Bigarray
    for INT/DATE, a float64 Bigarray for FLOAT, dictionary-encoded strings,
    a byte vector for booleans — plus an optional byte-per-row validity
    mask (['\001'] = NULL). Columns that defy classification (an INT/FLOAT
    mix among them) stay boxed, and the executor's kernels degrade per
    column rather than rejecting the batch.

    Numeric data lives in Bigarrays (outside the OCaml heap) so the GC
    neither scans column payloads nor paces collection against the large
    transient buffers produced per batch. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Uninitialized buffers (contents unspecified until written). *)
val icreate : int -> ints

val fcreate : int -> floats

(** {2 Scratch arena}

    Kernel-transient buffers are bump-allocated from pooled chunks while a
    domain-local arena is armed — zero allocation in steady state. Arm it
    for the duration of one executor run; buffers handed out in between
    must not escape the [scratch_begin]/[scratch_end] bracket. Nestable;
    the outermost [scratch_end] recycles every chunk. Without an armed
    arena, scratch requests fall back to permanent allocations. *)

val scratch_begin : unit -> unit
val scratch_end : unit -> unit

(** Uninitialized scratch buffers (arena-backed when armed). *)
val scratch_ints : int -> ints

val scratch_floats : int -> floats

type data =
  | Ints of ints
  | Floats of floats
  | Dates of ints  (** yyyymmdd, as in {!Data.Value.Date} *)
  | Bools of Bytes.t  (** ['\001'] = true *)
  | Dict of ints * string array  (** per-row code, dictionary *)
  | Boxed of Data.Value.t array

type t = { data : data; nulls : Bytes.t option }
(** [nulls = None] means no NULL anywhere; data under a set mask byte is
    zero padding. *)

type batch = { names : string array; cols : t array; nrows : int }

val length : t -> int
val is_null : t -> int -> bool

(** Boxed view of one slot (NULL-aware). *)
val get : t -> int -> Data.Value.t

(** Typed column of boxed values, in permanent buffers. A column mixing
    INT and FLOAT values stays [Boxed], so each value keeps its own type,
    as {!Eval} computed it or a statement stored it. *)
val of_values_exact : Data.Value.t array -> t

val to_values : t -> Data.Value.t array

(** [const v n] broadcasts a scalar to an [n]-row column. *)
val const : Data.Value.t -> int -> t

(** One-pass encode of a relation by {!of_values_exact}, counted in
    [exec.col_decodes] and [exec.col_decoded_rows]. *)
val of_relation : Data.Relation.t -> batch

(** Row view of a batch. *)
val to_relation : batch -> Data.Relation.t

(** [gather c idx k] takes rows of [c] at [idx.(0..k-1)], in order, into
    scratch buffers. *)
val gather : t -> ints -> int -> t

(** [take b rows] — the rows of [b] at [rows], in that order, in permanent
    buffers. A dictionary keeps every entry, and a boxed column stays
    boxed. *)
val take : batch -> int array -> batch

(** A batch as a table stores it: numeric columns may be the prefix of a
    buffer with room to grow, so that {!append} writes the new rows in
    place rather than copying the table. *)
type stored

(** A stored batch with no room yet. *)
val store : batch -> stored

val stored_batch : stored -> batch

(** [append s rows] — [s] followed by [rows]: the batch equals
    {!of_relation} of the concatenated rows (kind, buffers, mask,
    dictionary order), and [s]'s batch is unchanged. A column grows by the
    new values, into its room when [s] is the newest batch appended to
    along its line, into a fresh buffer of twice the length otherwise; a
    column whose kind the new values change (a FLOAT column receiving an
    INT, an all-NULL column its first value) is re-encoded whole. Counts the
    rows it encodes like {!of_relation}. Raises [Invalid_argument] when a
    row's width differs from the batch's. *)
val append : stored -> Data.Relation.row array -> stored

(** Empty the pool of scratch chunks that idle between executor runs. *)
val cache_clear : unit -> unit
