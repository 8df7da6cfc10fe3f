(** Typed column vectors for the vectorized executor (DESIGN.md §15).

    A column holds one unboxed buffer per runtime type — an int Bigarray
    for INT/DATE, a float64 Bigarray for FLOAT (and INT/FLOAT mixes,
    promoted), dictionary-encoded strings, a byte vector for booleans —
    plus an optional byte-per-row validity mask (['\001'] = NULL). Columns
    that defy classification stay boxed, and the executor's kernels
    degrade per column rather than rejecting the batch.

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

(** Typed column of boxed values. A column mixing INT and FLOAT values
    becomes [Floats], the INTs promoted. *)
val of_values : Data.Value.t array -> t

(** {!of_values} without the promotion: a column mixing INT and FLOAT
    values stays [Boxed], so each value keeps its own type, as {!Eval}
    computed it. *)
val of_values_exact : Data.Value.t array -> t

val to_values : t -> Data.Value.t array

(** [const v n] broadcasts a scalar to an [n]-row column. *)
val const : Data.Value.t -> int -> t

(** One-pass columnar decode of a relation (no caching). *)
val of_relation : Data.Relation.t -> batch

val to_relation : batch -> Data.Relation.t

(** [gather c idx k] takes rows of [c] at [idx.(0..k-1)], in order. *)
val gather : t -> ints -> int -> t

(** Decode through the process-wide LRU cache, keyed by
    {!Data.Relation.id}. On a miss, a cached append ancestor
    ({!Data.Relation.ancestry}) is extended by the appended rows alone —
    one [exec.col_decodes] that adds only those rows to
    [exec.col_decoded_rows] — unless a column's kind would change, in
    which case the relation is decoded in full. Either way the result
    equals {!of_relation}. Safe to call from multiple domains. *)
val cached : Data.Relation.t -> batch

(** Drop every cached decode (tests / memory pressure). *)
val cache_clear : unit -> unit
