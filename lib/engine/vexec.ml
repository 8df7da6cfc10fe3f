(* Vectorized (batch-at-a-time) QGM operators over typed column vectors.

   Execution here is column-at-a-time over whole-relation batches: scan
   decodes a base table once (through Column's LRU cache), joins build hash
   tables on key columns and gather matching rows, and aggregation assigns
   dense group ids in one pass then folds each aggregate in a tight typed
   loop. Shapes without a typed kernel (CASE, odd type mixes) evaluate row
   by row through Eval; DISTINCT aggregates fold over each group's first
   occurrences; UNION concatenates its branches. Every box body runs here.

   Filtering never copies. A select box's working set is a set of
   full-width columns plus a selection vector (ascending physical row
   indices); each predicate narrows the selection, and expressions read
   their leaf columns through it. A comparison of a column with a constant
   is one typed pass that writes the narrowed selection directly. Columns
   are gathered only where a join needs dense inputs or a result must be
   materialized. A one-quantifier select feeding only a GROUP BY box goes
   further ({!exec_select_filtered}): it hands the group its working set
   and output expressions, and the group evaluates its keys and aggregate
   arguments through the selection, so the select's result is never built.

   Semantics notes (kept bit-compatible with Eval and the Reference oracle,
   which the differential fuzz in test/test_differential.ml enforces):
   - AND/OR evaluate their right operand only on rows Eval would (left ≠
     FALSE for AND, ≠ TRUE for OR), CASE arms only on rows that reach them,
     and output expressions only on rows every predicate kept, so
     data-dependent errors (division by zero) surface identically.
   - Float comparisons follow [Float.compare]: NaN sorts below every number.
   - Join and group hash keys honor SQL grouping equality: NULL groups
     with NULL, Int and Float compare numerically.
   - Operator output row order is fixed (left-major joins, first-seen
     group order, per-group input-order folds), so ORDER BY ties and float
     sums come out the same as the Reference oracle's.
   - Boxed fallback kernels route through Eval's scalar kernels, so error
     messages and 3VL corner cases cannot drift between engines.
   - Computed columns keep each value's own type: a result mixing INT and
     FLOAT (a CASE, a function, a UNION of an INT and a FLOAT branch)
     stays boxed rather than promoted, so a later INT/INT division or a
     printed value matches Eval's. *)

module V = Data.Value
module R = Data.Relation
module E = Qgm.Expr
module B = Qgm.Box
module C = Column
module BA1 = Bigarray.Array1

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let x_batch_rows = Obs.Metrics.counter "exec.batch_rows"

(* ------------------------------------------------------------------ *)
(* Shared hashing on boxed values (SQL grouping equality)              *)
(* ------------------------------------------------------------------ *)

module Vkey = struct
  type t = V.t list

  let equal a b = List.length a = List.length b && List.for_all2 V.equal a b
  let hash k = List.fold_left (fun h v -> (h * 31) + V.hash v) 17 k
end

module VH = Hashtbl.Make (Vkey)

(* ------------------------------------------------------------------ *)
(* Growable int buffer (join outputs, selections)                      *)
(* ------------------------------------------------------------------ *)

(* Backed by a Bigarray, like column data: index buffers reach millions of
   entries, and keeping them off the OCaml heap keeps the GC out of the
   executor's inner loops. *)
type ibuf = { mutable ib_arr : C.ints; mutable ib_len : int }

let ibuf_create n = { ib_arr = C.scratch_ints (max 16 n); ib_len = 0 }

let ibuf_push b x =
  if b.ib_len = BA1.dim b.ib_arr then begin
    let bigger = C.scratch_ints (2 * b.ib_len) in
    BA1.blit b.ib_arr (BA1.sub bigger 0 b.ib_len);
    b.ib_arr <- bigger
  end;
  BA1.unsafe_set b.ib_arr b.ib_len x;
  b.ib_len <- b.ib_len + 1

(* The buffer's live prefix, zero-copy: (indices, count). *)
let ibuf_sel b = (b.ib_arr, b.ib_len)

(* ------------------------------------------------------------------ *)
(* Integer hash table                                                  *)
(* ------------------------------------------------------------------ *)

(* Open addressing with linear probing, int keys to non-negative ints
   (-1 marks an empty slot): the join and grouping kernels' table for a
   single integer key, free of polymorphic hashing and comparison. *)
type itab = { mutable tkeys : int array; mutable tvals : int array; mutable tsize : int }

let itab_create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { tkeys = Array.make !cap 0; tvals = Array.make !cap (-1); tsize = 0 }

let[@inline] itab_home k mask =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* The slot holding [k], or the empty slot where it would go. *)
let itab_slot t k =
  let mask = Array.length t.tkeys - 1 in
  let s = ref (itab_home k mask) in
  while Array.unsafe_get t.tvals !s >= 0 && Array.unsafe_get t.tkeys !s <> k do
    s := (!s + 1) land mask
  done;
  !s

(* The value bound to [k], or -1. *)
let itab_find t k = Array.unsafe_get t.tvals (itab_slot t k)

let rec itab_replace t k v =
  if 2 * (t.tsize + 1) > Array.length t.tkeys then begin
    let keys = t.tkeys and vals = t.tvals in
    t.tkeys <- Array.make (2 * Array.length keys) 0;
    t.tvals <- Array.make (2 * Array.length keys) (-1);
    t.tsize <- 0;
    Array.iteri (fun s x -> if x >= 0 then itab_replace t keys.(s) x) vals
  end;
  let s = itab_slot t k in
  if Array.unsafe_get t.tvals s < 0 then t.tsize <- t.tsize + 1;
  Array.unsafe_set t.tkeys s k;
  Array.unsafe_set t.tvals s v

(* ------------------------------------------------------------------ *)
(* Vectorized expression evaluation                                    *)
(* ------------------------------------------------------------------ *)

(* A select box's working set: columns addressed by (quantifier, column).
   [ln] rows are live: all of [lcols] when [lix] is [None], else the
   physical rows [lix.{0 .. ln-1}] (ascending). *)
type lbatch = {
  lay : (int * string) array;
  lcols : C.t array;
  ln : int;
  lix : C.ints option;
}

(* Physical row of live row [j] under an optional selection. *)
let[@inline] phys (ix : C.ints option) j =
  match ix with None -> j | Some s -> BA1.unsafe_get s j

let[@inline] null_in nulls i =
  match nulls with None -> false | Some m -> Bytes.unsafe_get m i = '\001'

(* An evaluated expression over [n] live rows: a dense column, a column
   read through a selection (a leaf of a narrowed working set), or a
   constant. *)
type vv = Vec of C.t | Sel of C.t * C.ints | Scal of V.t

let vv_get v i =
  match v with
  | Vec c -> C.get c i
  | Sel (c, ix) -> C.get c (BA1.unsafe_get ix i)
  | Scal s -> s

let vv_null v i =
  match v with
  | Vec c -> null_in c.C.nulls i
  | Sel (c, ix) -> null_in c.C.nulls (BA1.unsafe_get ix i)
  | Scal s -> V.is_null s

let vv_col n = function
  | Vec c -> c
  | Sel (c, ix) -> C.gather c ix n
  | Scal s -> C.const s n

(* For kernels without a through-selection loop. *)
let dense n = function Sel (c, ix) -> Vec (C.gather c ix n) | v -> v

let lay_index (lay : (int * string) array) quant col =
  let col = String.lowercase_ascii col in
  let n = Array.length lay in
  let rec go i =
    if i >= n then None
    else
      let q, c = lay.(i) in
      if q = quant && c = col then Some i else go (i + 1)
  in
  go 0

let lookup_col ctx { B.quant; col } =
  match lay_index ctx.lay quant col with
  | Some i -> ctx.lcols.(i)
  | None -> err "unresolved column reference q%d.%s" quant col

(* The live rows of column [c] of the working set, as a dense column. *)
let live_col ctx c = match ctx.lix with None -> c | Some ix -> C.gather c ix ctx.ln

(* Narrow a working set to its live rows [sel.{0 .. k-1}] (ascending),
   composing selections rather than copying columns. *)
let restrict ctx (sel, k) =
  let lix =
    match ctx.lix with
    | None -> sel
    | Some s ->
        let out = C.scratch_ints k in
        for j = 0 to k - 1 do
          BA1.unsafe_set out j (BA1.unsafe_get s (BA1.unsafe_get sel j))
        done;
        out
  in
  { ctx with ln = k; lix = Some lix }

(* Materialize the live rows, for operators that need dense inputs. *)
let densify ctx =
  match ctx.lix with
  | None -> ctx
  | Some _ -> { ctx with lcols = Array.map (live_col ctx) ctx.lcols; lix = None }

(* Merge null masks of two operands into a fresh result mask. *)
let merged_nulls n a b =
  let has = function
    | Vec { C.nulls = Some _; _ } | Sel ({ C.nulls = Some _; _ }, _) -> true
    | Scal s -> V.is_null s
    | _ -> false
  in
  if not (has a || has b) then None
  else begin
    let m = Bytes.make n '\000' in
    for i = 0 to n - 1 do
      if vv_null a i || vv_null b i then Bytes.unsafe_set m i '\001'
    done;
    Some m
  end

(* Numeric operands: typed buffers read through an optional selection. *)
type nview =
  | NIv of C.ints * C.ints option
  | NFv of C.floats * C.ints option
  | NIs of int
  | NFs of float
  | NNull
  | NOther

let num_view = function
  | Vec { C.data = C.Ints a; _ } -> NIv (a, None)
  | Sel ({ C.data = C.Ints a; _ }, ix) -> NIv (a, Some ix)
  | Vec { C.data = C.Floats a; _ } -> NFv (a, None)
  | Sel ({ C.data = C.Floats a; _ }, ix) -> NFv (a, Some ix)
  | Scal (V.Int x) -> NIs x
  | Scal (V.Float x) -> NFs x
  | Scal V.Null -> NNull
  | _ -> NOther

let all_null n = { C.data = C.Boxed (Array.make n V.Null); nulls = Some (Bytes.make n '\001') }

let int_ops = function
  | "+" -> Some ( + )
  | "-" -> Some ( - )
  | "*" -> Some ( * )
  | "/" -> Some (fun x y -> if y = 0 then raise Division_by_zero else x / y)
  | "%" -> Some (fun x y -> if y = 0 then raise Division_by_zero else x mod y)
  | _ -> None

let float_ops = function
  | "+" -> Some ( +. )
  | "-" -> Some ( -. )
  | "*" -> Some ( *. )
  | "/" -> Some ( /. )
  | _ -> None

(* Per-row fallback through the scalar kernel: exact Eval semantics
   (including error messages) at boxed speed, for odd type combinations. *)
let boxed_binop op n a b =
  let va = Array.init n (fun i -> Eval.apply_binop op (vv_get a i) (vv_get b i)) in
  Vec (C.of_values_exact va)

(* A numeric operand as a typed buffer plus read selection, so the op loops
   below run closure-free (composing accessor closures would box floats at
   every call). Constants and int-to-float promotions are materialized
   dense; padding under a null mask stays 0/0.0. *)
let int_coerce n = function
  | NIv (a, ix) -> (a, ix)
  | NIs x ->
      let out = C.scratch_ints n in
      BA1.fill out x;
      (out, None)
  | _ -> assert false

let float_coerce n = function
  | NFv (a, ix) -> (a, ix)
  | NIv (a, ix) ->
      let out = C.scratch_floats n in
      for j = 0 to n - 1 do
        BA1.unsafe_set out j (float_of_int (BA1.unsafe_get a (phys ix j)))
      done;
      (out, None)
  | NFs x ->
      let out = C.scratch_floats n in
      BA1.fill out x;
      (out, None)
  | NIs x ->
      let out = C.scratch_floats n in
      BA1.fill out (float_of_int x);
      (out, None)
  | _ -> assert false

let arith op n a b =
  match (int_ops op, float_ops op, num_view a, num_view b) with
  | _, _, NNull, _ | _, _, _, NNull ->
      (* NULL absorbs before any type checking, as in Value.arith *)
      Vec (all_null n)
  | Some fi, _, ((NIv _ | NIs _) as va), ((NIv _ | NIs _) as vb) ->
      let x, xi = int_coerce n va and y, yi = int_coerce n vb in
      let out = C.scratch_ints n in
      let nulls = merged_nulls n a b in
      (match (op, nulls) with
      | "+", None ->
          for j = 0 to n - 1 do
            BA1.unsafe_set out j
              (BA1.unsafe_get x (phys xi j) + BA1.unsafe_get y (phys yi j))
          done
      | "-", None ->
          for j = 0 to n - 1 do
            BA1.unsafe_set out j
              (BA1.unsafe_get x (phys xi j) - BA1.unsafe_get y (phys yi j))
          done
      | "*", None ->
          for j = 0 to n - 1 do
            BA1.unsafe_set out j
              (BA1.unsafe_get x (phys xi j) * BA1.unsafe_get y (phys yi j))
          done
      | _, None ->
          for j = 0 to n - 1 do
            BA1.unsafe_set out j
              (fi (BA1.unsafe_get x (phys xi j)) (BA1.unsafe_get y (phys yi j)))
          done
      | _, Some m ->
          (* masked rows are skipped, not computed: 0 padding under the
             mask must not raise Division_by_zero *)
          for j = 0 to n - 1 do
            if Bytes.unsafe_get m j = '\000' then
              BA1.unsafe_set out j
                (fi (BA1.unsafe_get x (phys xi j)) (BA1.unsafe_get y (phys yi j)))
            else BA1.unsafe_set out j 0
          done);
      Vec { C.data = C.Ints out; nulls }
  | _, Some _, ((NIv _ | NIs _ | NFv _ | NFs _) as va), ((NIv _ | NIs _ | NFv _ | NFs _) as vb)
    ->
      let x, xi = float_coerce n va and y, yi = float_coerce n vb in
      let out = C.scratch_floats n in
      let nulls = merged_nulls n a b in
      (* float ops cannot raise: compute every row branch-free, then zero
         the padding under the mask *)
      (match op with
      | "+" ->
          for j = 0 to n - 1 do
            BA1.unsafe_set out j
              (BA1.unsafe_get x (phys xi j) +. BA1.unsafe_get y (phys yi j))
          done
      | "-" ->
          for j = 0 to n - 1 do
            BA1.unsafe_set out j
              (BA1.unsafe_get x (phys xi j) -. BA1.unsafe_get y (phys yi j))
          done
      | "*" ->
          for j = 0 to n - 1 do
            BA1.unsafe_set out j
              (BA1.unsafe_get x (phys xi j) *. BA1.unsafe_get y (phys yi j))
          done
      | "/" ->
          for j = 0 to n - 1 do
            BA1.unsafe_set out j
              (BA1.unsafe_get x (phys xi j) /. BA1.unsafe_get y (phys yi j))
          done
      | _ -> assert false);
      (match nulls with
      | Some m ->
          for j = 0 to n - 1 do
            if Bytes.unsafe_get m j = '\001' then BA1.unsafe_set out j 0.0
          done
      | None -> ());
      Vec { C.data = C.Floats out; nulls }
  | _ -> boxed_binop op n a b

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)
(* ------------------------------------------------------------------ *)

type cop = Lt | Le | Gt | Ge | Eq | Ne

let cop_of = function
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | "=" -> Some Eq
  | "<>" -> Some Ne
  | _ -> None

(* [c op x] is [x (flip op) c]: [compare] and [Float.compare] are
   antisymmetric. *)
let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | (Eq | Ne) as o -> o

let holds op c =
  match op with
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Ne -> c <> 0

(* A column compared with a constant, in the column's physical type. *)
type ctest =
  | Ti of C.ints * int  (* INT column with an INT, or DATE with a DATE *)
  | Tf of C.floats * float  (* FLOAT column with a non-NaN number *)
  | Td of C.ints * Bytes.t  (* dictionary codes with a per-code verdict *)

let ctest op (c : C.t) k =
  match (c.C.data, k) with
  | C.Ints a, V.Int x | C.Dates a, V.Date x -> Some (Ti (a, x))
  | C.Floats a, V.Float x when not (Float.is_nan x) -> Some (Tf (a, x))
  | C.Floats a, V.Int x -> Some (Tf (a, float_of_int x))
  | C.Dict (codes, dict), V.Str s ->
      let ok = Bytes.make (Array.length dict) '\000' in
      Array.iteri
        (fun code d -> if holds op (String.compare d s) then Bytes.set ok code '\001')
        dict;
      Some (Td (codes, ok))
  | _ -> None

(* 1 unless row [i] is NULL. *)
let[@inline] valid nulls i =
  match nulls with None -> 1 | Some m -> if Bytes.unsafe_get m i = '\001' then 0 else 1

(* One pass over [n] live rows: the [oix]-mapped positions of the non-NULL
   rows where [x op k] holds, written into [out]; returns their count.
   Column values are read at [rix]-mapped positions. Every row is stored
   and the count advanced by the test's outcome, so the loop has no
   data-dependent branch to mispredict. Floats order like [Float.compare]
   (NaN below every number), which for a non-NaN constant makes <, <= and
   <> the negations of >=, > and =. *)
let test_rows op t nulls rix oix n (out : C.ints) =
  let k = ref 0 in
  (match t with
  | Ti (a, c) ->
      for j = 0 to n - 1 do
        let i = phys rix j in
        let x = BA1.unsafe_get a i in
        let hit =
          match op with
          | Lt -> x < c
          | Le -> x <= c
          | Gt -> x > c
          | Ge -> x >= c
          | Eq -> x = c
          | Ne -> x <> c
        in
        BA1.unsafe_set out !k (phys oix j);
        k := !k + (Bool.to_int hit land valid nulls i)
      done
  | Tf (a, c) ->
      for j = 0 to n - 1 do
        let i = phys rix j in
        let x = BA1.unsafe_get a i in
        let hit =
          match op with
          | Lt -> not (x >= c)
          | Le -> not (x > c)
          | Gt -> x > c
          | Ge -> x >= c
          | Eq -> x = c
          | Ne -> not (x = c)
        in
        BA1.unsafe_set out !k (phys oix j);
        k := !k + (Bool.to_int hit land valid nulls i)
      done
  | Td (codes, ok) ->
      for j = 0 to n - 1 do
        let i = phys rix j in
        BA1.unsafe_set out !k (phys oix j);
        k :=
          !k
          + (Char.code (Bytes.unsafe_get ok (BA1.unsafe_get codes i)) land valid nulls i)
      done);
  !k

(* The typed kernel for a column compared with a constant (either side):
   [Some (rows, count)] with rows mapped through [oix], or [None] when the
   operand shapes need the generic path. *)
let cmp_rows op ~oix n a b =
  let run op c rix k =
    match ctest op c k with
    | None -> None
    | Some t ->
        let out = C.scratch_ints n in
        Some (out, test_rows op t c.C.nulls rix oix n out)
  in
  match (a, b) with
  | Vec c, Scal k -> run op c None k
  | Sel (c, ix), Scal k -> run op c (Some ix) k
  | Scal k, Vec c -> run (flip op) c None k
  | Scal k, Sel (c, ix) -> run (flip op) c (Some ix) k
  | _ -> None

(* Per-row comparison for the remaining operand shapes (two columns, an
   INT column against a FLOAT, a NaN constant): [Some at] where [at i] is
   a V.compare-compatible int for non-null rows. *)
let compare_kernel a b =
  match (a, b) with
  | Vec { C.data = C.Dates x; _ }, Vec { C.data = C.Dates y; _ } ->
      Some (fun i -> compare (BA1.unsafe_get x i) (BA1.unsafe_get y i))
  | Vec { C.data = C.Dict (xc, xd); _ }, Vec { C.data = C.Dict (yc, yd); _ } ->
      Some
        (fun i -> String.compare xd.(BA1.unsafe_get xc i) yd.(BA1.unsafe_get yc i))
  | _ -> (
      (* one monomorphic closure per operand-shape pair: composing generic
         accessor closures would box every float crossing the boundary *)
      match (num_view a, num_view b) with
      | NIv (x, _), NIv (y, _) ->
          Some (fun i -> compare (BA1.unsafe_get x i) (BA1.unsafe_get y i))
      | NFv (x, _), NFv (y, _) ->
          Some (fun i -> Float.compare (BA1.unsafe_get x i) (BA1.unsafe_get y i))
      | NFv (x, _), NIv (y, _) ->
          Some
            (fun i ->
              Float.compare (BA1.unsafe_get x i) (float_of_int (BA1.unsafe_get y i)))
      | NIv (x, _), NFv (y, _) ->
          Some
            (fun i ->
              Float.compare (float_of_int (BA1.unsafe_get x i)) (BA1.unsafe_get y i))
      | NFv (x, _), NFs y -> Some (fun i -> Float.compare (BA1.unsafe_get x i) y)
      | NFs x, NFv (y, _) -> Some (fun i -> Float.compare x (BA1.unsafe_get y i))
      | NIv (x, _), NFs y ->
          Some (fun i -> Float.compare (float_of_int (BA1.unsafe_get x i)) y)
      | NFs x, NIv (y, _) ->
          Some (fun i -> Float.compare x (float_of_int (BA1.unsafe_get y i)))
      | _ -> None)

(* A comparison as a boolean column over [n] rows. *)
let cmp op n a b =
  match cop_of op with
  | None -> boxed_binop op n a b
  | Some o -> (
      let nulls = merged_nulls n a b in
      let bits = Bytes.make n '\000' in
      match cmp_rows o ~oix:None n a b with
      | Some (idx, k) ->
          for j = 0 to k - 1 do
            Bytes.unsafe_set bits (BA1.unsafe_get idx j) '\001'
          done;
          Vec { C.data = C.Bools bits; nulls }
      | None -> (
          let a = dense n a and b = dense n b in
          match compare_kernel a b with
          | None -> boxed_binop op n a b
          | Some at ->
              for i = 0 to n - 1 do
                if (not (null_in nulls i)) && holds o (at i) then
                  Bytes.unsafe_set bits i '\001'
              done;
              Vec { C.data = C.Bools bits; nulls }))

(* three-valued truth of a row: 0 = FALSE, 1 = TRUE, 2 = NULL; raises on
   non-boolean exactly where the scalar kernel would *)
let tri_of_value op = function
  | V.Bool true -> 1
  | V.Bool false -> 0
  | V.Null -> 2
  | _ -> raise (V.Type_error (op ^ " applied to non-boolean value"))

let tri_at op n v =
  match dense n v with
  | Scal s ->
      let t = tri_of_value op s in
      fun _ -> t
  | Vec ({ C.data = C.Bools bits; _ } as c) ->
      fun i -> if C.is_null c i then 2 else Char.code (Bytes.unsafe_get bits i)
  | Vec c -> fun i -> tri_of_value op (C.get c i)
  | Sel _ -> assert false

(* Integer projections of a DATE column (yyyymmdd). *)
let date_part f (a : C.ints) ix n =
  let out = C.scratch_ints n in
  (match f with
  | "year" ->
      for j = 0 to n - 1 do
        BA1.unsafe_set out j (BA1.unsafe_get a (phys ix j) / 10000)
      done
  | "month" ->
      for j = 0 to n - 1 do
        BA1.unsafe_set out j (BA1.unsafe_get a (phys ix j) / 100 mod 100)
      done
  | _ ->
      for j = 0 to n - 1 do
        BA1.unsafe_set out j (BA1.unsafe_get a (phys ix j) mod 100)
      done);
  out

(* A column's null mask over the live rows. *)
let live_nulls (c : C.t) (ix : C.ints option) n =
  match (c.C.nulls, ix) with
  | None, _ -> None
  | m, None -> m
  | Some m, Some s -> Some (Bytes.init n (fun j -> Bytes.unsafe_get m (BA1.unsafe_get s j)))

let rec eval (ctx : lbatch) (e : B.qref E.t) : vv =
  let n = ctx.ln in
  match e with
  | E.Const v -> Scal v
  | E.Col r -> (
      let c = lookup_col ctx r in
      match ctx.lix with None -> Vec c | Some ix -> Sel (c, ix))
  | E.Unop ("-", e') -> (
      let v = dense n (eval ctx e') in
      match v with
      | Scal s -> Scal (V.neg s)
      | Vec ({ C.data = C.Ints a; _ } as c) ->
          let out = C.scratch_ints n in
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (-BA1.unsafe_get a i)
          done;
          Vec { c with C.data = C.Ints out }
      | Vec ({ C.data = C.Floats a; _ } as c) ->
          let out = C.scratch_floats n in
          for i = 0 to n - 1 do
            BA1.unsafe_set out i (-.BA1.unsafe_get a i)
          done;
          Vec { c with C.data = C.Floats out }
      | v -> Vec (C.of_values_exact (Array.init n (fun i -> V.neg (vv_get v i)))))
  | E.Unop ("NOT", e') ->
      let v = eval ctx e' in
      let at = tri_at "NOT" n v in
      let bits = Bytes.make n '\000' in
      let nulls = ref None in
      for i = 0 to n - 1 do
        match at i with
        | 0 -> Bytes.unsafe_set bits i '\001'
        | 1 -> ()
        | _ ->
            (match !nulls with
            | None -> nulls := Some (Bytes.make n '\000')
            | Some _ -> ());
            Bytes.set (Option.get !nulls) i '\001'
      done;
      Vec { C.data = C.Bools bits; nulls = !nulls }
  | E.Unop (op, _) -> err "unknown unary operator %s" op
  | E.Binop ("AND", a, b) -> and_or ctx ~op:"AND" a b
  | E.Binop ("OR", a, b) -> and_or ctx ~op:"OR" a b
  | E.Binop (op, a, b) -> (
      let va = eval ctx a in
      let vb = eval ctx b in
      match (va, vb) with
      | Scal x, Scal y -> Scal (Eval.apply_binop op x y)
      | _ ->
          if cop_of op <> None then cmp op n va vb
          else if int_ops op <> None || float_ops op <> None then arith op n va vb
          else boxed_binop op n va vb)
  | E.Fncall (f, args) -> eval_fn ctx f args
  | E.Agg _ -> invalid_arg "Vexec.eval: aggregate outside a GROUP BY box"
  | E.Is_null (e', positive) -> (
      let v = eval ctx e' in
      match v with
      | Scal s -> Scal (V.Bool (if positive then V.is_null s else not (V.is_null s)))
      | v ->
          let bits = Bytes.make n '\000' in
          for i = 0 to n - 1 do
            if vv_null v i = positive then Bytes.unsafe_set bits i '\001'
          done;
          Vec { C.data = C.Bools bits; nulls = None })
  | E.Case _ ->
      (* row by row through Eval, so an arm is evaluated only on the rows
         that reach it; leaves are resolved once, not per row *)
      let cols = List.map (fun r -> (r, lookup_col ctx r)) (E.cols e) in
      let lookup j r = C.get (List.assoc r cols) (phys ctx.lix j) in
      Vec (C.of_values_exact (Array.init n (fun j -> Eval.eval (lookup j) e)))

(* AND/OR with Eval's short-circuit: the right operand is only evaluated
   on rows where the left side does not already decide. *)
and and_or ctx ~op a b =
  let n = ctx.ln in
  let va = eval ctx a in
  let short = if op = "AND" then 0 else 1 in
  let ta = tri_at op n va in
  (* rows Eval would evaluate [b] on *)
  let live = ibuf_create n in
  let tas = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    let t = ta i in
    Bytes.unsafe_set tas i (Char.unsafe_chr t);
    if t <> short then ibuf_push live i
  done;
  let sel, k = ibuf_sel live in
  let tb_of =
    if k = 0 then fun _ -> 0 (* never consulted *)
    else if k = n then
      let vb = eval ctx b in
      tri_at op n vb
    else begin
      let vb = eval (restrict ctx (sel, k)) b in
      let at = tri_at op k vb in
      (* scatter: row index -> tri *)
      let by_row = Bytes.make n '\000' in
      for j = 0 to k - 1 do
        Bytes.unsafe_set by_row (BA1.unsafe_get sel j) (Char.unsafe_chr (at j))
      done;
      fun i -> Char.code (Bytes.unsafe_get by_row i)
    end
  in
  let bits = Bytes.make n '\000' in
  let nulls = ref None in
  let set_null i =
    (match !nulls with None -> nulls := Some (Bytes.make n '\000') | Some _ -> ());
    Bytes.set (Option.get !nulls) i '\001'
  in
  for i = 0 to n - 1 do
    let a_t = Char.code (Bytes.unsafe_get tas i) in
    let t =
      if a_t = short then short
      else
        let tb = tb_of i in
        if op = "AND" then
          match (a_t, tb) with
          | 1, x -> x
          | 2, 0 -> 0
          | 2, _ -> 2
          | _ -> assert false
        else
          match (a_t, tb) with
          | 0, x -> x
          | 2, 1 -> 1
          | 2, _ -> 2
          | _ -> assert false
    in
    if t = 1 then Bytes.unsafe_set bits i '\001' else if t = 2 then set_null i
  done;
  Vec { C.data = C.Bools bits; nulls = !nulls }

and eval_fn ctx f args =
  let n = ctx.ln in
  let vs = List.map (eval ctx) args in
  let boxed () =
    if List.for_all (function Scal _ -> true | _ -> false) vs then
      Scal (Eval.apply_fn f (List.map (fun v -> vv_get v 0) vs))
    else
      Vec
        (C.of_values_exact
           (Array.init n (fun i -> Eval.apply_fn f (List.map (fun v -> vv_get v i) vs))))
  in
  let col_ix = function
    | Vec c -> Some (c, None)
    | Sel (c, ix) -> Some (c, Some ix)
    | Scal _ -> None
  in
  match (String.lowercase_ascii f, List.map col_ix vs) with
  | (("year" | "month" | "day") as part), [ Some (({ C.data = C.Dates a; _ } as c), ix) ] ->
      Vec { C.data = C.Ints (date_part part a ix n); nulls = live_nulls c ix n }
  | "float", [ Some (({ C.data = C.Ints a; _ } as c), ix) ] ->
      let out = C.scratch_floats n in
      for j = 0 to n - 1 do
        BA1.unsafe_set out j (float_of_int (BA1.unsafe_get a (phys ix j)))
      done;
      Vec { C.data = C.Floats out; nulls = live_nulls c ix n }
  | "float", [ Some ({ C.data = C.Floats _; _ }, _) ] -> List.hd vs
  | "abs", [ Some (({ C.data = C.Ints a; _ } as c), ix) ] ->
      let out = C.scratch_ints n in
      for j = 0 to n - 1 do
        BA1.unsafe_set out j (abs (BA1.unsafe_get a (phys ix j)))
      done;
      Vec { C.data = C.Ints out; nulls = live_nulls c ix n }
  | "abs", [ Some (({ C.data = C.Floats a; _ } as c), ix) ] ->
      let out = C.scratch_floats n in
      for j = 0 to n - 1 do
        BA1.unsafe_set out j (Float.abs (BA1.unsafe_get a (phys ix j)))
      done;
      Vec { C.data = C.Floats out; nulls = live_nulls c ix n }
  | _ -> boxed ()

(* Narrow the working set to the live rows where [p] is definitely TRUE.
   A column-constant comparison runs as one typed pass that writes the
   narrowed selection; anything else evaluates to a truth column first. *)
let filter ctx p =
  let n = ctx.ln in
  let narrow (idx, k) = { ctx with ln = k; lix = Some idx } in
  let of_truth = function
    | Scal s -> if V.is_true s then ctx else narrow (C.scratch_ints 0, 0)
    | v ->
        let out = C.scratch_ints n in
        let k = ref 0 in
        let keep j =
          BA1.unsafe_set out !k (phys ctx.lix j);
          incr k
        in
        (match dense n v with
        | Vec { C.data = C.Bools bits; nulls } ->
            for j = 0 to n - 1 do
              if Bytes.unsafe_get bits j = '\001' && not (null_in nulls j) then keep j
            done
        | v ->
            for j = 0 to n - 1 do
              if V.is_true (vv_get v j) then keep j
            done);
        narrow (out, !k)
  in
  match p with
  | E.Binop (op, a, b) when cop_of op <> None -> (
      let va = eval ctx a in
      let vb = eval ctx b in
      match (va, vb) with
      | Scal x, Scal y -> of_truth (Scal (Eval.apply_binop op x y))
      | _ -> (
          match cmp_rows (Option.get (cop_of op)) ~oix:ctx.lix n va vb with
          | Some r -> narrow r
          | None -> of_truth (cmp op n va vb)))
  | _ -> of_truth (eval ctx p)

(* ------------------------------------------------------------------ *)
(* Base scan                                                           *)
(* ------------------------------------------------------------------ *)

let batch_col_index (b : C.batch) name =
  let lname = String.lowercase_ascii name in
  let n = Array.length b.C.names in
  let rec go i =
    if i >= n then raise Not_found
    else if String.lowercase_ascii b.C.names.(i) = lname then i
    else go (i + 1)
  in
  go 0

let exec_base db { B.bt_table; bt_cols } : C.batch =
  let rel = Db.get_exn db bt_table in
  let full = C.cached rel in
  {
    C.names = Array.of_list bt_cols;
    cols = Array.of_list (List.map (fun c -> full.C.cols.(batch_col_index full c)) bt_cols);
    nrows = full.C.nrows;
  }

(* ------------------------------------------------------------------ *)
(* Select box: incremental hash join over batches                      *)
(* ------------------------------------------------------------------ *)

let pred_quant_set p = List.sort_uniq compare (List.map (fun r -> r.B.quant) (E.cols p))

(* Predicates safe to evaluate on rows a join might later discard: anything
   free of integer division/modulo, whose Division_by_zero would otherwise
   depend on which rows the join keeps. *)
let rec pred_safe = function
  | E.Const _ | E.Col _ -> true
  | E.Unop (_, e) | E.Is_null (e, _) -> pred_safe e
  | E.Binop (("/" | "%"), _, _) -> false
  | E.Binop (_, a, b) -> pred_safe a && pred_safe b
  | E.Fncall ("mod", _) -> false
  | E.Fncall (_, args) -> List.for_all pred_safe args
  | E.Agg _ | E.Case _ -> false

(* Single-int-key hash join: head table plus a next-index chain, built back
   to front so each chain enumerates build rows in ascending order (a
   nested loop's match order). Pushes (probe, build) index pairs onto
   [li]/[ri]. Probe rows with [probe_null] are skipped; a [probe_key] with
   no build entry (e.g. the -1 sentinel from dictionary translation) simply
   misses. *)
let chain_join (build : C.ints) (bnulls : Bytes.t option) n_build
    (probe_null : int -> bool) (probe_key : int -> int) n_probe li ri =
  let head = itab_create n_build in
  let next = Array.make (max 1 n_build) (-1) in
  for i = n_build - 1 downto 0 do
    if not (null_in bnulls i) then begin
      let k = BA1.unsafe_get build i in
      Array.unsafe_set next i (itab_find head k);
      itab_replace head k i
    end
  done;
  for l = 0 to n_probe - 1 do
    if not (probe_null l) then begin
      let j = ref (itab_find head (probe_key l)) in
      while !j >= 0 do
        ibuf_push li l;
        ibuf_push ri !j;
        j := Array.unsafe_get next !j
      done
    end
  done

let generic_join_matches (build_key : int -> V.t list option) n_build
    (probe_key : int -> V.t list option) : int -> int list =
  let ht = VH.create (max 16 n_build) in
  for i = 0 to n_build - 1 do
    match build_key i with None -> () | Some k -> VH.add ht k i
  done;
  fun p ->
    match probe_key p with None -> [] | Some k -> List.rev (VH.find_all ht k)

(* Joins and filters of a select box: its working set with every predicate
   applied, before output projection. *)
let select_rows ~(child : B.quant -> C.batch) (sel : B.select_body) : lbatch =
  let { B.sel_quants = quants; sel_preds = preds; sel_outs = outs; _ } = sel in
  (* initial working set: scalar-subquery columns as single-row constants *)
  let init_lay = ref [] and init_cols = ref [] in
  List.iter
    (fun q ->
      if q.B.q_kind = B.Scalar then begin
        let cb = child q in
        let value ci =
          match cb.C.nrows with
          | 0 -> V.Null
          | 1 -> C.get cb.C.cols.(ci) 0
          | n -> err "scalar subquery returned %d rows" n
        in
        Array.iteri
          (fun ci col ->
            init_lay := !init_lay @ [ (q.B.q_id, String.lowercase_ascii col) ];
            init_cols := !init_cols @ [ C.of_values [| value ci |] ])
          cb.C.names
      end)
    quants;
  let ctx =
    ref
      {
        lay = Array.of_list !init_lay;
        lcols = Array.of_list !init_cols;
        ln = 1;
        lix = None;
      }
  in
  let pending = ref (List.map (fun p -> (p, pred_quant_set p)) preds) in
  (* Columns the rest of the pipeline still needs: the outputs plus every
     pending predicate. Join keys live in [pending] until consumed, so a
     column is only pruned once nothing downstream can reference it. *)
  let needed () =
    let tbl = Hashtbl.create 32 in
    let note e =
      List.iter
        (fun r ->
          Hashtbl.replace tbl (r.B.quant, String.lowercase_ascii r.B.col) ())
        (E.cols e)
    in
    List.iter (fun (_, e) -> note e) outs;
    List.iter (fun (p, _) -> note p) !pending;
    tbl
  in
  let prune_lbatch tbl b =
    let ks = ref [] in
    Array.iteri
      (fun i key -> if Hashtbl.mem tbl key then ks := i :: !ks)
      b.lay;
    let ks = Array.of_list (List.rev !ks) in
    if Array.length ks = Array.length b.lay then b
    else
      {
        b with
        lay = Array.map (fun i -> b.lay.(i)) ks;
        lcols = Array.map (fun i -> b.lcols.(i)) ks;
      }
  in
  let lay_quants () =
    Array.to_list !ctx.lay |> List.map fst |> List.sort_uniq compare
  in
  let apply_applicable () =
    let avail = lay_quants () in
    let applicable, rest =
      List.partition
        (fun (_, qs) -> List.for_all (fun q -> List.mem q avail) qs)
        !pending
    in
    pending := rest;
    List.iter (fun (p, _) -> ctx := filter !ctx p) applicable
  in
  apply_applicable ();
  List.iter
    (fun q ->
      if q.B.q_kind = B.Foreach then begin
        let cb = child q in
        let cb_lnames = Array.map String.lowercase_ascii cb.C.names in
        let col_idx name =
          let name = String.lowercase_ascii name in
          let n = Array.length cb_lnames in
          let rec go i =
            if i >= n then
              err "column %s missing in child of quantifier %d" name q.B.q_id
            else if cb_lnames.(i) = name then i
            else go (i + 1)
          in
          go 0
        in
        (* usable equi-join keys: new-side col = working-set ref *)
        let keys = ref [] in
        pending :=
          List.filter
            (fun (p, _) ->
              match p with
              | E.Binop ("=", E.Col a, E.Col b) ->
                  let try_pair x y =
                    if
                      x.B.quant = q.B.q_id
                      && lay_index !ctx.lay y.B.quant y.B.col <> None
                    then begin
                      (* validate now, look the column up by name later:
                         pruning below shifts indices *)
                      let _ : int = col_idx x.B.col in
                      keys := (x.B.col, y) :: !keys;
                      true
                    end
                    else false
                  in
                  not (try_pair a b || try_pair b a)
              | _ -> true)
            !pending;
        (* push single-quant predicates below the join: filtering one input
           keeps both the probe-major and per-chain orders, so results come
           out row for row as without the pushdown *)
        let pushed, rest =
          List.partition (fun (p, qs) -> qs = [ q.B.q_id ] && pred_safe p) !pending
        in
        pending := rest;
        (* drop child columns nothing can touch anymore *)
        let need0 =
          let tbl = needed () in
          let note e =
            List.iter
              (fun r ->
                Hashtbl.replace tbl (r.B.quant, String.lowercase_ascii r.B.col) ())
              (E.cols e)
          in
          List.iter (fun (p, _) -> note p) pushed;
          List.iter
            (fun (nm, _) ->
              Hashtbl.replace tbl (q.B.q_id, String.lowercase_ascii nm) ())
            !keys;
          tbl
        in
        let cbatch =
          List.fold_left
            (fun b (p, _) -> filter b p)
            (prune_lbatch need0
               {
                 lay = Array.map (fun nm -> (q.B.q_id, nm)) cb_lnames;
                 lcols = cb.C.cols;
                 ln = cb.C.nrows;
                 lix = None;
               })
            pushed
        in
        let need = needed () in
        let cpruned = prune_lbatch need cbatch in
        if Array.length !ctx.lay = 0 && !ctx.ln = 1 && !keys = [] then
          (* first scan over the unit row: adopt the filtered, pruned child
             wholesale (selection and all) instead of joining *)
          ctx := cpruned
        else begin
          let key_pairs =
            List.map
              (fun (nm, yref) ->
                let bc =
                  match lay_index cbatch.lay q.B.q_id nm with
                  | Some i -> live_col cbatch cbatch.lcols.(i)
                  | None -> err "join key %s pruned (internal error)" nm
                in
                (bc, live_col !ctx (lookup_col !ctx yref)))
              !keys
          in
          let lpruned = densify (prune_lbatch need !ctx)
          and cpruned = densify cpruned in
          let nl = !ctx.ln and nr = cbatch.ln in
          let li = ibuf_create (max 16 (max nl nr)) in
          let ri = ibuf_create (max 16 (max nl nr)) in
          (match key_pairs with
          | [] ->
              (* cross product, left-major *)
              for l = 0 to nl - 1 do
                for r = 0 to nr - 1 do
                  ibuf_push li l;
                  ibuf_push ri r
                done
              done
          | [ (bc, pc) ] -> (
              (* single-key fast paths on physical representation *)
              match (bc.C.data, pc.C.data) with
              | C.Ints ba, C.Ints pa | C.Dates ba, C.Dates pa ->
                  chain_join ba bc.C.nulls nr
                    (fun l -> C.is_null pc l)
                    (fun l -> BA1.unsafe_get pa l)
                    nl li ri
              | C.Dict (bcodes, bdict), C.Dict (pcodes, pdict) ->
                  (* translate probe codes into the build dictionary; bdict
                     has unique strings by construction, but Dict columns
                     built via [const] may repeat — first wins *)
                  let by_str = Hashtbl.create (Array.length bdict) in
                  Array.iteri
                    (fun code s ->
                      if not (Hashtbl.mem by_str s) then Hashtbl.add by_str s code)
                    bdict;
                  let trans =
                    Array.map
                      (fun s ->
                        match Hashtbl.find_opt by_str s with
                        | Some c -> c
                        | None -> -1)
                      pdict
                  in
                  chain_join bcodes bc.C.nulls nr
                    (fun l -> C.is_null pc l)
                    (fun l -> Array.unsafe_get trans (BA1.unsafe_get pcodes l))
                    nl li ri
              | _ ->
                  let matches =
                    generic_join_matches
                      (fun i ->
                        let v = C.get bc i in
                        if V.is_null v then None else Some [ v ])
                      nr
                      (fun i ->
                        let v = C.get pc i in
                        if V.is_null v then None else Some [ v ])
                  in
                  for l = 0 to nl - 1 do
                    List.iter
                      (fun r ->
                        ibuf_push li l;
                        ibuf_push ri r)
                      (matches l)
                  done)
          | _ ->
              let key_of cols i =
                let vs = List.map (fun c -> C.get c i) cols in
                if List.exists V.is_null vs then None else Some vs
              in
              let bcols = List.map fst key_pairs
              and pcols = List.map snd key_pairs in
              let matches = generic_join_matches (key_of bcols) nr (key_of pcols) in
              for l = 0 to nl - 1 do
                List.iter
                  (fun r ->
                    ibuf_push li l;
                    ibuf_push ri r)
                  (matches l)
              done);
          let lsel, lk = ibuf_sel li and rsel, _ = ibuf_sel ri in
          ctx :=
            {
              lay = Array.append lpruned.lay cpruned.lay;
              lcols =
                Array.append
                  (Array.map (fun c -> C.gather c lsel lk) lpruned.lcols)
                  (Array.map (fun c -> C.gather c rsel lk) cpruned.lcols);
              ln = lk;
              lix = None;
            }
        end;
        apply_applicable ()
      end)
    quants;
  if !pending <> [] then
    err "predicate references unavailable quantifier (internal error)";
  Obs.Metrics.add x_batch_rows !ctx.ln;
  !ctx

(* Output projection over the live rows. *)
let project ctx outs : C.batch =
  {
    C.names = Array.of_list (List.map fst outs);
    cols = Array.of_list (List.map (fun (_, e) -> vv_col ctx.ln (eval ctx e)) outs);
    nrows = ctx.ln;
  }

(* The first occurrence of each distinct row, in order. *)
let dedup (b : C.batch) : C.batch =
  let seen = VH.create 64 in
  let keep = ibuf_create b.C.nrows in
  for i = 0 to b.C.nrows - 1 do
    let key = Array.to_list (Array.map (fun c -> C.get c i) b.C.cols) in
    if not (VH.mem seen key) then begin
      VH.add seen key ();
      ibuf_push keep i
    end
  done;
  let sel, k = ibuf_sel keep in
  { b with C.cols = Array.map (fun c -> C.gather c sel k) b.C.cols; nrows = k }

let exec_select ~child (sel : B.select_body) : C.batch =
  let result = project (select_rows ~child sel) sel.B.sel_outs in
  if sel.B.sel_distinct then dedup result else result

(* A select box run up to its output projection. *)
type filtered = { f_rows : lbatch; f_outs : (string * B.qref E.t) list }

let exec_select_filtered ~child (sel : B.select_body) : filtered =
  if sel.B.sel_distinct then invalid_arg "Vexec.exec_select_filtered: DISTINCT";
  { f_rows = select_rows ~child sel; f_outs = sel.B.sel_outs }

let filtered_rows f = f.f_rows.ln
let materialize f = project f.f_rows f.f_outs

(* ------------------------------------------------------------------ *)
(* Group box: dense group ids + typed aggregate folds                  *)
(* ------------------------------------------------------------------ *)

type input = Batch of C.batch | Filtered of filtered

(* A group input column over the group's [n] rows: row [j] is physical row
   [phys gix j] of [gc]. *)
type gcol = { gc : C.t; gix : C.ints option }

(* A key whose observed max - min is below this gets directly indexed
   group ids; a wider range hashes. *)
let dense_span n = max 1024 (2 * n)

(* Per-row dense group id (first-seen order), the boxed key per group (for
   output), and the group count. *)
let group_ids n (key : gcol list) : C.ints * V.t list array * int =
  let gids = C.scratch_ints n in
  let keys = ref [] and ngroups = ref 0 in
  let fresh k =
    keys := k :: !keys;
    incr ngroups;
    !ngroups - 1
  in
  (match key with
  | [] ->
      (* the grand total: one group, if any row *)
      if n > 0 then BA1.fill gids (fresh [])
  | [ { gc = { C.data = (C.Ints a | C.Dates a) as data; nulls }; gix } ] ->
      let mk = match data with C.Dates _ -> fun x -> V.Date x | _ -> fun x -> V.Int x in
      let null_gid = ref (-1) in
      let gid_null () =
        if !null_gid < 0 then null_gid := fresh [ V.Null ];
        !null_gid
      in
      let lo = ref max_int and hi = ref min_int in
      for j = 0 to n - 1 do
        let i = phys gix j in
        if not (null_in nulls i) then begin
          let x = BA1.unsafe_get a i in
          if x < !lo then lo := x;
          if x > !hi then hi := x
        end
      done;
      let lo = !lo and span = !hi - !lo in
      if span >= 0 && span < dense_span n then begin
        (* a small observed range: index group ids by key - lo *)
        let slot = Array.make (span + 1) (-1) in
        for j = 0 to n - 1 do
          let i = phys gix j in
          let g =
            if null_in nulls i then gid_null ()
            else
              let x = BA1.unsafe_get a i in
              let g = Array.unsafe_get slot (x - lo) in
              if g >= 0 then g
              else begin
                let g = fresh [ mk x ] in
                Array.unsafe_set slot (x - lo) g;
                g
              end
          in
          BA1.unsafe_set gids j g
        done
      end
      else begin
        let t = itab_create 256 in
        for j = 0 to n - 1 do
          let i = phys gix j in
          let g =
            if null_in nulls i then gid_null ()
            else
              let x = BA1.unsafe_get a i in
              let g = itab_find t x in
              if g >= 0 then g
              else begin
                let g = fresh [ mk x ] in
                itab_replace t x g;
                g
              end
          in
          BA1.unsafe_set gids j g
        done
      end
  | [ { gc = { C.data = C.Dict (codes, dict); nulls }; gix } ] ->
      (* dictionary codes are already dense group candidates *)
      let by_code = Array.make (Array.length dict + 1) (-1) in
      let nullslot = Array.length dict in
      for j = 0 to n - 1 do
        let i = phys gix j in
        let slot = if null_in nulls i then nullslot else BA1.unsafe_get codes i in
        if by_code.(slot) < 0 then
          by_code.(slot) <-
            fresh (if slot = nullslot then [ V.Null ] else [ V.Str dict.(slot) ]);
        BA1.unsafe_set gids j by_code.(slot)
      done
  | _ ->
      let ht = VH.create 256 in
      for j = 0 to n - 1 do
        let k = List.map (fun { gc; gix } -> C.get gc (phys gix j)) key in
        match VH.find_opt ht k with
        | Some g -> BA1.unsafe_set gids j g
        | None ->
            let g = fresh k in
            VH.add ht k g;
            BA1.unsafe_set gids j g
      done);
  (gids, Array.of_list (List.rev !keys), !ngroups)

(* The rows a DISTINCT aggregate folds: the first non-NULL occurrence of
   each (group id, value) pair, in input order, with their group ids and
   per-group counts. *)
let first_occurrences n (gids : C.ints) ngroups { gc; gix } =
  let seen = VH.create 64 in
  let keep = ibuf_create n in
  for j = 0 to n - 1 do
    let i = phys gix j in
    if not (null_in gc.C.nulls i) then begin
      let key = [ V.Int (BA1.unsafe_get gids j); C.get gc i ] in
      if not (VH.mem seen key) then begin
        VH.add seen key ();
        ibuf_push keep j
      end
    end
  done;
  let sel, k = ibuf_sel keep in
  let kgids = C.scratch_ints k and kix = C.scratch_ints k in
  let counts = Array.make ngroups 0 in
  for t = 0 to k - 1 do
    let j = BA1.unsafe_get sel t in
    let g = BA1.unsafe_get gids j in
    BA1.unsafe_set kgids t g;
    BA1.unsafe_set kix t (phys gix j);
    counts.(g) <- counts.(g) + 1
  done;
  (k, kgids, { gc; gix = Some kix }, counts)

(* Fold one aggregate over the group's [n] rows in a typed loop, in input
   order; yields per-gid V.t. *)
let rec fold_agg n (gids : C.ints) ngroups (agg : E.agg) (arg : gcol option) counts :
    int -> V.t =
  match agg.E.fn with
  | E.Count_star -> fun g -> V.Int counts.(g)
  | _ -> (
      match arg with
      | None ->
          (* COUNT/SUM/... over no argument: every input is NULL *)
          fun _ ->
            (match agg.E.fn with E.Count -> V.Int 0 | _ -> V.Null)
      | Some a when agg.E.distinct ->
          let n, gids, a, counts = first_occurrences n gids ngroups a in
          fold_agg n gids ngroups { agg with E.distinct = false } (Some a) counts
      | Some { gc = c; gix } -> (
          let nulls = c.C.nulls in
          let nonnull =
            match nulls with
            | None -> counts
            | Some _ ->
                let nn = Array.make ngroups 0 in
                for j = 0 to n - 1 do
                  if not (null_in nulls (phys gix j)) then begin
                    let g = BA1.unsafe_get gids j in
                    nn.(g) <- nn.(g) + 1
                  end
                done;
                nn
          in
          match agg.E.fn with
          | E.Count_star -> assert false
          | E.Count -> fun g -> V.Int nonnull.(g)
          | E.Sum | E.Avg -> (
              let finish_sum g sum_int sum_float is_int =
                if nonnull.(g) = 0 then V.Null
                else if agg.E.fn = E.Sum then
                  if is_int then V.Int sum_int else V.Float sum_float
                else
                  V.Float
                    ((if is_int then float_of_int sum_int else sum_float)
                    /. float_of_int nonnull.(g))
              in
              match c.C.data with
              | C.Ints a ->
                  let sums = Array.make ngroups 0 in
                  for j = 0 to n - 1 do
                    let i = phys gix j in
                    if not (null_in nulls i) then begin
                      let g = BA1.unsafe_get gids j in
                      sums.(g) <- sums.(g) + BA1.unsafe_get a i
                    end
                  done;
                  fun g -> finish_sum g sums.(g) 0.0 true
              | C.Floats a ->
                  let sums = Array.make ngroups 0.0 in
                  for j = 0 to n - 1 do
                    let i = phys gix j in
                    if not (null_in nulls i) then begin
                      let g = BA1.unsafe_get gids j in
                      sums.(g) <- sums.(g) +. BA1.unsafe_get a i
                    end
                  done;
                  fun g -> finish_sum g 0 sums.(g) false
              | _ ->
                  (* boxed fallback: the same V.add fold as Reference *)
                  let sums = Array.make ngroups V.Null in
                  for j = 0 to n - 1 do
                    let i = phys gix j in
                    if not (null_in nulls i) then begin
                      let g = BA1.unsafe_get gids j in
                      let v = C.get c i in
                      sums.(g) <- (if V.is_null sums.(g) then v else V.add sums.(g) v)
                    end
                  done;
                  fun g ->
                    if V.is_null sums.(g) then V.Null
                    else if agg.E.fn = E.Sum then sums.(g)
                    else V.Float (V.to_float sums.(g) /. float_of_int nonnull.(g)))
          | E.Min | E.Max -> (
              let better =
                if agg.E.fn = E.Min then fun c -> c < 0 else fun c -> c > 0
              in
              match c.C.data with
              | C.Ints a | C.Dates a ->
                  let best = Array.make ngroups 0 in
                  let seen = Array.make ngroups false in
                  for j = 0 to n - 1 do
                    let i = phys gix j in
                    if not (null_in nulls i) then begin
                      let g = BA1.unsafe_get gids j in
                      let x = BA1.unsafe_get a i in
                      if (not seen.(g)) || better (compare x best.(g)) then begin
                        best.(g) <- x;
                        seen.(g) <- true
                      end
                    end
                  done;
                  let mk =
                    match c.C.data with
                    | C.Dates _ -> fun x -> V.Date x
                    | _ -> fun x -> V.Int x
                  in
                  fun g -> if seen.(g) then mk best.(g) else V.Null
              | C.Floats a ->
                  let best = Array.make ngroups 0.0 in
                  let seen = Array.make ngroups false in
                  for j = 0 to n - 1 do
                    let i = phys gix j in
                    if not (null_in nulls i) then begin
                      let g = BA1.unsafe_get gids j in
                      let x = BA1.unsafe_get a i in
                      if (not seen.(g)) || better (Float.compare x best.(g)) then begin
                        best.(g) <- x;
                        seen.(g) <- true
                      end
                    end
                  done;
                  fun g -> if seen.(g) then V.Float best.(g) else V.Null
              | C.Dict (codes, dict) ->
                  let best = Array.make ngroups "" in
                  let seen = Array.make ngroups false in
                  for j = 0 to n - 1 do
                    let i = phys gix j in
                    if not (null_in nulls i) then begin
                      let g = BA1.unsafe_get gids j in
                      let s = dict.(BA1.unsafe_get codes i) in
                      if (not seen.(g)) || better (String.compare s best.(g)) then begin
                        best.(g) <- s;
                        seen.(g) <- true
                      end
                    end
                  done;
                  fun g -> if seen.(g) then V.Str best.(g) else V.Null
              | _ ->
                  let best = Array.make ngroups V.Null in
                  for j = 0 to n - 1 do
                    let i = phys gix j in
                    if not (null_in nulls i) then begin
                      let g = BA1.unsafe_get gids j in
                      let v = C.get c i in
                      if V.is_null best.(g) || better (V.compare v best.(g)) then
                        best.(g) <- v
                    end
                  done;
                  fun g -> best.(g))))

let exec_group ~(child : B.quant -> input) (grp : B.group_body) : C.batch =
  (* the input's columns by name; a filtered select's outputs are all
     evaluated here, in order and on its live rows only, exactly where its
     projection would have evaluated them *)
  let n, named =
    match child grp.B.grp_quant with
    | Batch cb ->
        ( cb.C.nrows,
          List.combine (Array.to_list cb.C.names)
            (Array.to_list (Array.map (fun c -> { gc = c; gix = None }) cb.C.cols)) )
    | Filtered { f_rows; f_outs } ->
        let n = f_rows.ln in
        ( n,
          List.map
            (fun (nm, e) ->
              ( nm,
                match eval f_rows e with
                | Vec c -> { gc = c; gix = None }
                | Sel (c, ix) -> { gc = c; gix = Some ix }
                | Scal s -> { gc = C.const s n; gix = None } ))
            f_outs )
  in
  let col name =
    let name = String.lowercase_ascii name in
    match List.find_opt (fun (nm, _) -> String.lowercase_ascii nm = name) named with
    | Some (_, c) -> c
    | None -> raise Not_found
  in
  let union_cols = B.grouping_union grp.B.grp_grouping in
  let out_names = union_cols @ List.map fst grp.B.grp_aggs in
  let agg_specs =
    List.map (fun (_, { B.agg; arg }) -> (agg, Option.map col arg)) grp.B.grp_aggs
  in
  Obs.Metrics.add x_batch_rows n;
  let cuboid set : V.t array list (* per output column, per-gid values *) * int =
    let set_l = List.map String.lowercase_ascii set in
    let gids, keys, ngroups = group_ids n (List.map col set) in
    let keys, ngroups =
      if ngroups = 0 && set = [] then ([| [] |], 1) else (keys, ngroups)
    in
    let counts = Array.make ngroups 0 in
    for j = 0 to n - 1 do
      let g = BA1.unsafe_get gids j in
      counts.(g) <- counts.(g) + 1
    done;
    let union_vals =
      List.map
        (fun col ->
          match
            List.find_index (fun c -> c = String.lowercase_ascii col) set_l
          with
          | Some j -> Array.map (fun key -> List.nth key j) keys
          | None -> Array.make ngroups V.Null)
        union_cols
    in
    let agg_vals =
      List.map
        (fun (agg, arg) -> Array.init ngroups (fold_agg n gids ngroups agg arg counts))
        agg_specs
    in
    (union_vals @ agg_vals, ngroups)
  in
  let pieces = List.map cuboid (B.grouping_sets grp.B.grp_grouping) in
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 pieces in
  let ncols = List.length out_names in
  let out_cols =
    List.init ncols (fun ci ->
        let vals = Array.make total V.Null in
        let off = ref 0 in
        List.iter
          (fun (cols, k) ->
            Array.blit (List.nth cols ci) 0 vals !off k;
            off := !off + k)
          pieces;
        C.of_values_exact vals)
  in
  { C.names = Array.of_list out_names; cols = Array.of_list out_cols; nrows = total }

(* ------------------------------------------------------------------ *)
(* Union box                                                           *)
(* ------------------------------------------------------------------ *)

let exec_union ~(child : B.quant -> C.batch) (u : B.union_body) : C.batch =
  let arity = List.length u.B.un_cols in
  let branches =
    List.map
      (fun q ->
        let b = child q in
        if Array.length b.C.cols <> arity then err "UNION branch arity mismatch";
        b)
      u.B.un_quants
  in
  let result =
    {
      C.names = Array.of_list u.B.un_cols;
      cols =
        Array.init arity (fun ci ->
            C.of_values_exact
              (Array.concat (List.map (fun b -> C.to_values b.C.cols.(ci)) branches)));
      nrows = List.fold_left (fun acc b -> acc + b.C.nrows) 0 branches;
    }
  in
  if u.B.un_all then result else dedup result
