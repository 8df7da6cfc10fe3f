(* Typed column vectors for the vectorized executor (DESIGN.md §15).

   A column is one unboxed buffer per runtime type plus an optional
   byte-per-row validity mask (1 = NULL; the data slot under a set byte is
   zero padding). A batch is a set of equal-length columns with names — the
   columnar mirror of a [Data.Relation.t].

   Numeric buffers are Bigarrays, not OCaml arrays, deliberately: column
   data lives outside the OCaml heap, so the garbage collector neither
   scans it during marking nor paces major slices against the multi-
   megabyte transient buffers a scan produces. With heap arrays the
   executor's cost was dominated by GC work proportional to allocation
   size times live-heap size; with Bigarrays a batch costs a malloc.

   Decoding a relation classifies each column in one pass (all-Int, numeric
   Int/Float mix promoted to float, dictionary-encoded strings, booleans,
   dates) and falls back to a boxed [Value.t array] for anything mixed —
   the executor's kernels then degrade gracefully per column instead of
   refusing the whole batch. Base-table decodes are cached process-wide,
   keyed by the relation's unique stamp ([Relation.id]): relations are
   immutable, so a stamp fully identifies the payload, and DML produces a
   fresh relation (fresh stamp) whose old columns simply age out of the
   LRU; appends extend the cached decode of the relation they grew from
   ([Relation.ancestry]), decoding only the new rows. The cache is
   mutex-protected — executor domains share it. *)

module V = Data.Value
module R = Data.Relation
module BA1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t

let icreate n : ints = BA1.create Bigarray.int Bigarray.c_layout n
let fcreate n : floats = BA1.create Bigarray.float64 Bigarray.c_layout n

(* ------------------------------------------------------------------ *)
(* Scratch arena                                                       *)
(* ------------------------------------------------------------------ *)

(* Executing one query allocates tens of megabytes of short-lived numeric
   buffers (selections, gathered columns, kernel outputs). Allocating each
   as a fresh Bigarray is correct but slow for two compounding reasons:
   the runtime charges out-of-heap custom memory to the major GC, whose
   marking slices then repeatedly traverse the (large, boxed, static)
   database heap; and once freed, multi-megabyte blocks go back to the OS,
   so the next query pays kernel zeroing and page faults again.

   Instead, scratch buffers are bump-allocated from pooled chunks. A
   domain-local arena is armed for the duration of one [Exec.run]
   ([scratch_begin]/[scratch_end], nestable); every chunk returns to a
   process-wide pool at the end of the run, so steady state allocates
   nothing. Scratch buffers must not outlive the run — executor results
   are converted to boxed relations before the arena resets, and the
   decode cache uses permanent allocations ([icreate]/[fcreate]). When no
   arena is armed (unit tests driving kernels directly), scratch requests
   degrade to permanent allocations. *)

let chunk_elems = 1 lsl 20 (* 8 MB *)
let pool_max_chunks = 24 (* per kind: bounds idle pool at ~192 MB *)

let ipool : ints list ref = ref []
let fpool : floats list ref = ref []
let pool_mutex = Mutex.create ()

let take_chunk pool n =
  Mutex.lock pool_mutex;
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | c :: rest ->
        if BA1.dim c >= n then (Some c, List.rev_append acc rest)
        else go (c :: acc) rest
  in
  let found, rest = go [] !pool in
  pool := rest;
  Mutex.unlock pool_mutex;
  found

let give_chunks pool cs =
  Mutex.lock pool_mutex;
  List.iter
    (fun c -> if List.length !pool < pool_max_chunks then pool := c :: !pool)
    cs;
  Mutex.unlock pool_mutex

type arena = {
  mutable icur : ints;
  mutable ioff : int;
  mutable iused : ints list;
  mutable fcur : floats;
  mutable foff : int;
  mutable fused : floats list;
  mutable depth : int;
}

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        icur = icreate 0;
        ioff = 0;
        iused = [];
        fcur = fcreate 0;
        foff = 0;
        fused = [];
        depth = 0;
      })

let scratch_begin () =
  let a = Domain.DLS.get arena_key in
  a.depth <- a.depth + 1

let scratch_end () =
  let a = Domain.DLS.get arena_key in
  a.depth <- a.depth - 1;
  if a.depth <= 0 then begin
    a.depth <- 0;
    let is = if BA1.dim a.icur > 0 then a.icur :: a.iused else a.iused in
    let fs = if BA1.dim a.fcur > 0 then a.fcur :: a.fused else a.fused in
    a.icur <- icreate 0;
    a.ioff <- 0;
    a.iused <- [];
    a.fcur <- fcreate 0;
    a.foff <- 0;
    a.fused <- [];
    give_chunks ipool is;
    give_chunks fpool fs
  end

let scratch_ints n : ints =
  let a = Domain.DLS.get arena_key in
  if a.depth = 0 then icreate n
  else begin
    if n > BA1.dim a.icur - a.ioff then begin
      if BA1.dim a.icur > 0 then a.iused <- a.icur :: a.iused;
      let cap = max chunk_elems n in
      a.icur <-
        (match take_chunk ipool cap with Some c -> c | None -> icreate cap);
      a.ioff <- 0
    end;
    let b = BA1.sub a.icur a.ioff n in
    a.ioff <- a.ioff + n;
    b
  end

let scratch_floats n : floats =
  let a = Domain.DLS.get arena_key in
  if a.depth = 0 then fcreate n
  else begin
    if n > BA1.dim a.fcur - a.foff then begin
      if BA1.dim a.fcur > 0 then a.fused <- a.fcur :: a.fused;
      let cap = max chunk_elems n in
      a.fcur <-
        (match take_chunk fpool cap with Some c -> c | None -> fcreate cap);
      a.foff <- 0
    end;
    let b = BA1.sub a.fcur a.foff n in
    a.foff <- a.foff + n;
    b
  end

type data =
  | Ints of ints
  | Floats of floats
  | Dates of ints               (* yyyymmdd encoding, as in Value.Date *)
  | Bools of Bytes.t            (* '\001' = true *)
  | Dict of ints * string array (* per-row code into the dictionary *)
  | Boxed of V.t array          (* mixed / unclassified *)

type t = { data : data; nulls : Bytes.t option }

type batch = { names : string array; cols : t array; nrows : int }

let length c =
  match c.data with
  | Ints a | Dates a -> BA1.dim a
  | Floats a -> BA1.dim a
  | Bools b -> Bytes.length b
  | Dict (codes, _) -> BA1.dim codes
  | Boxed a -> Array.length a

let is_null c i =
  match c.nulls with None -> false | Some m -> Bytes.unsafe_get m i = '\001'

let get c i =
  if is_null c i then V.Null
  else
    match c.data with
    | Ints a -> V.Int (BA1.get a i)
    | Floats a -> V.Float (BA1.get a i)
    | Dates a -> V.Date (BA1.get a i)
    | Bools b -> V.Bool (Bytes.get b i = '\001')
    | Dict (codes, dict) -> V.Str dict.(BA1.get codes i)
    | Boxed a -> a.(i)

(* ------------------------------------------------------------------ *)
(* Classification / decode                                             *)
(* ------------------------------------------------------------------ *)

let no_nulls m = Bytes.for_all (fun c -> c = '\000') m

let build ~promote (vals : V.t array) : t =
  let n = Array.length vals in
  let ints = ref 0 and floats = ref 0 and strs = ref 0 and bools = ref 0 in
  let dates = ref 0 and nulls = ref 0 in
  for i = 0 to n - 1 do
    match vals.(i) with
    | V.Null -> incr nulls
    | V.Int _ -> incr ints
    | V.Float _ -> incr floats
    | V.Str _ -> incr strs
    | V.Bool _ -> incr bools
    | V.Date _ -> incr dates
  done;
  let nonnull = n - !nulls in
  let mask = if !nulls > 0 then Some (Bytes.make n '\000') else None in
  let set_null i = match mask with Some m -> Bytes.set m i '\001' | None -> () in
  let data =
    if nonnull = 0 then begin
      (match mask with Some m -> Bytes.fill m 0 n '\001' | None -> ());
      Boxed (Array.map (fun _ -> V.Null) vals)
    end
    else if !ints = nonnull then begin
      let a = icreate n in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Int x -> BA1.unsafe_set a i x
        | _ ->
            BA1.unsafe_set a i 0;
            set_null i
      done;
      Ints a
    end
    else if !ints + !floats = nonnull && (promote || !ints = 0) then begin
      let a = fcreate n in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Int x -> BA1.unsafe_set a i (float_of_int x)
        | V.Float x -> BA1.unsafe_set a i x
        | _ ->
            BA1.unsafe_set a i 0.0;
            set_null i
      done;
      Floats a
    end
    else if !strs = nonnull then begin
      let codes = icreate n in
      let tbl = Hashtbl.create 64 in
      let dict = ref [] and next = ref 0 in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Str s ->
            let code =
              match Hashtbl.find_opt tbl s with
              | Some c -> c
              | None ->
                  let c = !next in
                  Hashtbl.add tbl s c;
                  dict := s :: !dict;
                  incr next;
                  c
            in
            BA1.unsafe_set codes i code
        | _ ->
            BA1.unsafe_set codes i 0;
            set_null i
      done;
      Dict (codes, Array.of_list (List.rev !dict))
    end
    else if !dates = nonnull then begin
      let a = icreate n in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Date x -> BA1.unsafe_set a i x
        | _ ->
            BA1.unsafe_set a i 0;
            set_null i
      done;
      Dates a
    end
    else if !bools = nonnull then begin
      let b = Bytes.make n '\000' in
      for i = 0 to n - 1 do
        match vals.(i) with
        | V.Bool true -> Bytes.set b i '\001'
        | V.Bool false -> ()
        | _ -> set_null i
      done;
      Bools b
    end
    else begin
      (* mixed tags: keep boxed, but still record the mask for kernels *)
      for i = 0 to n - 1 do
        if V.is_null vals.(i) then set_null i
      done;
      Boxed (Array.copy vals)
    end
  in
  { data; nulls = mask }

let of_values vals = build ~promote:true vals
let of_values_exact vals = build ~promote:false vals

let to_values c =
  let n = length c in
  Array.init n (get c)

let const v n : t =
  match v with
  | V.Null -> { data = Boxed (Array.make n V.Null); nulls = Some (Bytes.make n '\001') }
  | V.Int x ->
      let a = scratch_ints n in
      BA1.fill a x;
      { data = Ints a; nulls = None }
  | V.Float x ->
      let a = scratch_floats n in
      BA1.fill a x;
      { data = Floats a; nulls = None }
  | V.Date x ->
      let a = scratch_ints n in
      BA1.fill a x;
      { data = Dates a; nulls = None }
  | V.Bool b -> { data = Bools (Bytes.make n (if b then '\001' else '\000')); nulls = None }
  | V.Str s ->
      let codes = scratch_ints n in
      BA1.fill codes 0;
      { data = Dict (codes, [| s |]); nulls = None }

(* ------------------------------------------------------------------ *)
(* Batch <-> relation                                                  *)
(* ------------------------------------------------------------------ *)

let decodes = Obs.Metrics.counter "exec.col_decodes"
let decode_hits = Obs.Metrics.counter "exec.col_decode_hits"
let decode_ms = Obs.Metrics.histogram "exec.col_decode_ms"
let decoded_rows = Obs.Metrics.counter "exec.col_decoded_rows"

let decoding nrows f =
  Obs.Metrics.incr decodes;
  Obs.Metrics.add decoded_rows nrows;
  Obs.Metrics.time decode_ms f

let of_relation (r : R.t) : batch =
  decoding (R.cardinality r) @@ fun () ->
  let rows = R.rows_array r in
  let names = R.columns r in
  let n = Array.length rows in
  let cols =
    Array.mapi
      (fun ci _ -> of_values (Array.init n (fun i -> rows.(i).(ci))))
      names
  in
  { names; cols; nrows = n }

let to_relation (b : batch) : R.t =
  let rows =
    List.init b.nrows (fun i ->
        Array.map (fun c -> get c i) b.cols)
  in
  R.create (Array.to_list b.names) rows

(* ------------------------------------------------------------------ *)
(* Gather (row selection by index)                                     *)
(* ------------------------------------------------------------------ *)

let gather (c : t) (idx : ints) (k : int) : t =
  let data =
    match c.data with
    | Ints a ->
        let out = scratch_ints k in
        for i = 0 to k - 1 do
          BA1.unsafe_set out i (BA1.unsafe_get a (BA1.unsafe_get idx i))
        done;
        Ints out
    | Dates a ->
        let out = scratch_ints k in
        for i = 0 to k - 1 do
          BA1.unsafe_set out i (BA1.unsafe_get a (BA1.unsafe_get idx i))
        done;
        Dates out
    | Floats a ->
        let out = scratch_floats k in
        for i = 0 to k - 1 do
          BA1.unsafe_set out i (BA1.unsafe_get a (BA1.unsafe_get idx i))
        done;
        Floats out
    | Bools b -> Bools (Bytes.init k (fun i -> Bytes.unsafe_get b (BA1.unsafe_get idx i)))
    | Dict (codes, dict) ->
        let out = scratch_ints k in
        for i = 0 to k - 1 do
          BA1.unsafe_set out i (BA1.unsafe_get codes (BA1.unsafe_get idx i))
        done;
        Dict (out, dict)
    | Boxed a -> Boxed (Array.init k (fun i -> Array.unsafe_get a (BA1.unsafe_get idx i)))
  in
  let nulls =
    match c.nulls with
    | None -> None
    | Some m ->
        let m' = Bytes.init k (fun i -> Bytes.unsafe_get m (BA1.unsafe_get idx i)) in
        if no_nulls m' then None else Some m'
  in
  { data; nulls }

(* ------------------------------------------------------------------ *)
(* Append extension                                                    *)
(* ------------------------------------------------------------------ *)

(* Can [vals] follow column [p] without [of_values] over the concatenation
   choosing another kind? An all-NULL or mixed prefix ([Boxed]) never
   qualifies: its kind depends on values still to come. *)
let extendable (p : t) (vals : V.t array) =
  let fits v =
    match (p.data, v) with
    | _, V.Null
    | Ints _, V.Int _
    | Floats _, (V.Int _ | V.Float _)
    | Dates _, V.Date _
    | Bools _, V.Bool _
    | Dict _, V.Str _ ->
        true
    | _ -> false
  in
  (match p.data with Boxed _ -> false | _ -> true) && Array.for_all fits vals

(* [p] followed by [vals] ([extendable p vals]), in fresh buffers, equal to
   [of_values] of the concatenated values: the same padding under NULLs,
   INTs promoted in a float column, and new strings appended to the
   dictionary in first-occurrence order. *)
let extend (p : t) (vals : V.t array) : t =
  let n = length p and k = Array.length vals in
  let nulls =
    if p.nulls = None && not (Array.exists V.is_null vals) then None
    else begin
      let m = Bytes.make (n + k) '\000' in
      Option.iter (fun pm -> Bytes.blit pm 0 m 0 n) p.nulls;
      Array.iteri (fun i v -> if V.is_null v then Bytes.set m (n + i) '\001') vals;
      Some m
    end
  in
  let ints a enc =
    let out = icreate (n + k) in
    BA1.blit a (BA1.sub out 0 n);
    Array.iteri (fun i v -> BA1.unsafe_set out (n + i) (enc v)) vals;
    out
  in
  let data =
    match p.data with
    | Ints a -> Ints (ints a (function V.Int x -> x | _ -> 0))
    | Dates a -> Dates (ints a (function V.Date x -> x | _ -> 0))
    | Floats a ->
        let out = fcreate (n + k) in
        BA1.blit a (BA1.sub out 0 n);
        Array.iteri
          (fun i v ->
            BA1.unsafe_set out (n + i)
              (match v with
              | V.Int x -> float_of_int x
              | V.Float x -> x
              | _ -> 0.0))
          vals;
        Floats out
    | Bools b ->
        Bools
          (Bytes.cat b
             (Bytes.init k (fun i ->
                  if vals.(i) = V.Bool true then '\001' else '\000')))
    | Dict (codes, dict) ->
        let tbl = Hashtbl.create (Array.length dict) in
        Array.iteri (fun c s -> Hashtbl.replace tbl s c) dict;
        let added = ref [] and next = ref (Array.length dict) in
        let code = function
          | V.Str s -> (
              match Hashtbl.find_opt tbl s with
              | Some c -> c
              | None ->
                  let c = !next in
                  Hashtbl.add tbl s c;
                  added := s :: !added;
                  incr next;
                  c)
          | _ -> 0
        in
        let codes = ints codes code in
        Dict (codes, Array.append dict (Array.of_list (List.rev !added)))
    | Boxed _ -> invalid_arg "Column.extend: boxed prefix"
  in
  { data; nulls }

(* Decode [r] from [prefix], the decode of its first [prefix.nrows] rows:
   [None] when some column would change kind, so only a full decode gives
   [of_relation]'s answer. *)
let extend_batch (prefix : batch) (r : R.t) : batch option =
  let rows = R.rows_array r and n = prefix.nrows in
  let k = Array.length rows - n in
  let vals =
    Array.mapi (fun ci _ -> Array.init k (fun i -> rows.(n + i).(ci))) prefix.cols
  in
  if not (Array.for_all2 extendable prefix.cols vals) then None
  else
    Some
      ( decoding k @@ fun () ->
        { names = R.columns r; cols = Array.map2 extend prefix.cols vals; nrows = n + k } )

(* ------------------------------------------------------------------ *)
(* Decode cache                                                        *)
(* ------------------------------------------------------------------ *)

let cache_cap = 16
let cache : (int, batch * int ref) Hashtbl.t = Hashtbl.create 32
let cache_mutex = Mutex.create ()
let cache_tick = ref 0

(* On a miss, the newest cached append ancestor seeds an extension instead
   of a full decode. *)
let cached (r : R.t) : batch =
  let key = R.id r in
  let hit, prefix =
    Mutex.lock cache_mutex;
    let res =
      match Hashtbl.find_opt cache key with
      | Some (b, stamp) ->
          incr cache_tick;
          stamp := !cache_tick;
          (Some b, None)
      | None ->
          ( None,
            List.find_map
              (fun id -> Option.map fst (Hashtbl.find_opt cache id))
              (R.ancestry r) )
    in
    Mutex.unlock cache_mutex;
    res
  in
  match hit with
  | Some b ->
      Obs.Metrics.incr decode_hits;
      b
  | None ->
      let b =
        match Option.bind prefix (fun p -> extend_batch p r) with
        | Some b -> b
        | None -> of_relation r
      in
      Mutex.lock cache_mutex;
      incr cache_tick;
      Hashtbl.replace cache key (b, ref !cache_tick);
      if Hashtbl.length cache > cache_cap then begin
        (* evict the least-recently-used entry *)
        let victim = ref (-1) and oldest = ref max_int in
        Hashtbl.iter
          (fun k (_, stamp) ->
            if !stamp < !oldest then begin
              oldest := !stamp;
              victim := k
            end)
          cache;
        if !victim >= 0 then Hashtbl.remove cache !victim
      end;
      Mutex.unlock cache_mutex;
      b

let cache_clear () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Mutex.unlock cache_mutex
