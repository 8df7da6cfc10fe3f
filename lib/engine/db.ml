module Smap = Map.Make (String)
module C = Column

type t = { cat : Catalog.t; tables : C.stored Smap.t }

let norm = String.lowercase_ascii
let create cat = { cat; tables = Smap.empty }
let catalog db = db.cat
let with_catalog db cat = { db with cat }

(* Distinct values of a column, NULL counting as one value: the count a
   hash set of its boxed values gives (floats hash and compare as [V.Float]
   does, so NaNs count once and so do 0.0 and -0.0). *)
let ndv (c : C.t) =
  let n = C.length c in
  let distinct key =
    let seen = Hashtbl.create 64 in
    for i = 0 to n - 1 do
      if not (C.is_null c i) then Hashtbl.replace seen (key i) ()
    done;
    Hashtbl.length seen
  in
  let non_null =
    match c.C.data with
    | C.Ints a | C.Dates a | C.Dict (a, _) -> distinct (Bigarray.Array1.get a)
    | C.Floats a -> distinct (Bigarray.Array1.get a)
    | C.Bools b -> distinct (Bytes.get b)
    | C.Boxed a -> distinct (Array.get a)
  in
  let has_null = match c.C.nulls with Some m -> Bytes.contains m '\001' | None -> false in
  non_null + if has_null then 1 else 0

let recompute_ndvs cat name (b : C.batch) =
  let cat = ref cat in
  Array.iteri (fun i col -> cat := Catalog.set_col_ndv !cat name col (ndv b.C.cols.(i))) b.C.names;
  !cat

let store db name (s : C.stored) =
  let b = C.stored_batch s in
  let n = b.C.nrows in
  (* Distinct-count statistics are exact but only refreshed when the table
     changed materially since the last scan (>5% or 100 rows), so a stream
     of small INSERT/DELETE statements stays linear instead of rescanning
     the whole relation each time. *)
  let stale =
    match Catalog.row_count db.cat name with
    | None -> true
    | Some old -> abs (n - old) > Stdlib.max 100 (old / 20)
  in
  let cat = Catalog.set_row_count db.cat name n in
  let cat = if stale then recompute_ndvs cat name b else cat in
  { cat; tables = Smap.add (norm name) s db.tables }

let put db name rel = store db name (C.store (C.of_relation rel))
let find db name = Option.map C.stored_batch (Smap.find_opt (norm name) db.tables)

let batch db name =
  match find db name with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Db: no contents for table %s" name)

let append db name rows =
  let current =
    match Smap.find_opt (norm name) db.tables with
    | Some s -> s
    | None ->
        let cols = Option.fold ~none:[] ~some:Catalog.column_names (Catalog.find_table db.cat name) in
        C.store (C.of_relation (Data.Relation.empty cols))
  in
  store db name (C.append current (Array.of_list rows))

let select db name rows = store db name (C.store (C.take (batch db name) rows))
let get db name = Option.map C.to_relation (find db name)
let get_exn db name = C.to_relation (batch db name)
let cardinality db name = Option.map (fun b -> b.C.nrows) (find db name)
let drop db name = { db with tables = Smap.remove (norm name) db.tables }

let of_tables cat tables =
  List.fold_left (fun db (n, r) -> put db n r) (create cat) tables
