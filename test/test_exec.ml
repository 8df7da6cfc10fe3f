(* Executor semantics: joins with NULLs, 3VL filtering, aggregates,
   DISTINCT, grouping sets (the paper's Figure 12 table), scalar
   subqueries, presentation. *)

module R = Data.Relation
module V = Data.Value
open Helpers

let db () = tiny_db ()

let test_filter_3vl () =
  (* v > 6 must drop the NULL v row, not keep it *)
  let r = run (db ()) "select k from fact where v > 6" in
  Alcotest.(check (list (list string)))
    "rows" [ [ "1" ]; [ "2" ]; [ "5" ]; [ "6" ] ]
    (List.map (List.map V.to_string) (sorted_rows r))

let test_join_basic () =
  let r =
    run (db ())
      "select label, count(*) as c from fact, dims where dim = id group by \
       label order by label"
  in
  Alcotest.(check (list (list string)))
    "join groups"
    [ [ "a"; "2" ]; [ "b"; "2" ]; [ "c"; "2" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_join_null_keys_dont_match () =
  let cat = tiny_catalog () in
  let dims =
    R.create [ "id"; "label"; "region" ] [ [| i 1; s "a"; s "e" |] ]
  in
  let fact =
    R.create [ "k"; "dim"; "grp"; "v" ]
      [ [| i 1; i 1; s "x"; i 1 |]; [| i 2; i 1; s "x"; V.Null |] ]
  in
  let db = Engine.Db.of_tables cat [ ("dims", dims); ("fact", fact) ] in
  (* join on v = id: NULL v must not join with anything *)
  let r = run db "select k from fact, dims where v = id" in
  Alcotest.(check int) "null join key drops" 1 (R.cardinality r)

let test_cross_product () =
  let r = run (db ()) "select fact.k as k, dims.id as d from fact, dims" in
  Alcotest.(check int) "6*3 rows" 18 (R.cardinality r)

let test_aggregates () =
  let r =
    run (db ())
      "select grp, count(*) as c, count(v) as cv, sum(v) as sv, min(v) as mn, \
       max(v) as mx, avg(v) as av from fact group by grp order by grp"
  in
  Alcotest.(check (list (list string)))
    "all aggregates"
    [
      [ "x"; "3"; "2"; "30"; "10"; "20"; "15.0" ];
      [ "y"; "3"; "3"; "19"; "5"; "7"; "6.33333" ];
    ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_distinct_aggregates () =
  let r =
    run (db ())
      "select grp, count(distinct v) as dv, sum(distinct v) as sdv from fact \
       group by grp order by grp"
  in
  Alcotest.(check (list (list string)))
    "distinct aggregates"
    [ [ "x"; "2"; "30" ]; [ "y"; "2"; "12" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_grand_total_empty_input () =
  let r = run (db ()) "select count(*) as c, sum(v) as sv from fact where v > 1000" in
  Alcotest.(check (list (list string)))
    "one row, count 0, sum null"
    [ [ "0"; "NULL" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_grouped_empty_input () =
  let r = run (db ()) "select grp, count(*) as c from fact where v > 1000 group by grp" in
  Alcotest.(check int) "no groups" 0 (R.cardinality r)

let test_select_distinct () =
  let r = run (db ()) "select distinct grp from fact" in
  Alcotest.(check int) "two values" 2 (R.cardinality r)

let test_scalar_subquery () =
  let r = run (db ()) "select k, v * (select count(*) from dims) as t from fact where k = 1" in
  Alcotest.(check (list (list string)))
    "scaled" [ [ "1"; "30" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_scalar_subquery_empty_is_null () =
  let r =
    run (db ())
      "select k, (select id from dims where label = 'nope') as missing from \
       fact where k = 1"
  in
  Alcotest.(check (list (list string)))
    "null scalar" [ [ "1"; "NULL" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_order_limit () =
  let r = run (db ()) "select k from fact order by k desc limit 2" in
  Alcotest.(check (list (list string)))
    "top 2 desc" [ [ "6" ]; [ "5" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

(* The paper's Figure 12: grouping-sets semantics on the sample table. *)
let fig12_catalog () =
  Catalog.add_table Catalog.empty
    {
      Catalog.tbl_name = "T";
      tbl_cols =
        [
          { Catalog.col_name = "flid"; col_ty = V.Tint; nullable = false };
          { Catalog.col_name = "year"; col_ty = V.Tint; nullable = false };
          { Catalog.col_name = "faid"; col_ty = V.Tint; nullable = false };
        ];
      primary_key = [];
      unique_keys = [];
      foreign_keys = [];
    }

let fig12_rows =
  [
    [| i 1; i 1990; i 100 |];
    [| i 1; i 1991; i 100 |];
    [| i 1; i 1991; i 200 |];
    [| i 1; i 1991; i 300 |];
    [| i 1; i 1992; i 100 |];
    [| i 1; i 1992; i 400 |];
    [| i 2; i 1991; i 400 |];
    [| i 2; i 1991; i 400 |];
  ]

let test_figure12 () =
  let db =
    Engine.Db.of_tables (fig12_catalog ())
      [ ("T", R.create [ "flid"; "year"; "faid" ] fig12_rows) ]
  in
  let r =
    run db
      "select flid, year, faid, count(*) as cnt from T group by grouping \
       sets((flid, year), (flid, faid))"
  in
  let expected =
    R.create [ "flid"; "year"; "faid"; "cnt" ]
      [
        (* (flid, year) cuboid *)
        [| i 1; i 1990; V.Null; i 1 |];
        [| i 1; i 1991; V.Null; i 3 |];
        [| i 1; i 1992; V.Null; i 2 |];
        [| i 2; i 1991; V.Null; i 2 |];
        (* (flid, faid) cuboid *)
        [| i 1; V.Null; i 100; i 3 |];
        [| i 1; V.Null; i 200; i 1 |];
        [| i 1; V.Null; i 300; i 1 |];
        [| i 1; V.Null; i 400; i 1 |];
        [| i 2; V.Null; i 400; i 2 |];
      ]
  in
  check_rows "figure 12 cuboids" expected r

let test_rollup_execution () =
  let db =
    Engine.Db.of_tables (fig12_catalog ())
      [ ("T", R.create [ "flid"; "year"; "faid" ] fig12_rows) ]
  in
  let r =
    run db "select flid, year, count(*) as cnt from T group by rollup(flid, year)"
  in
  (* 4 (flid,year) + 2 (flid) + 1 () = 7 rows *)
  Alcotest.(check int) "rollup rows" 7 (R.cardinality r);
  let grand =
    List.filter
      (fun row -> row.(0) = V.Null && row.(1) = V.Null)
      (R.rows r)
  in
  Alcotest.(check (list (list string)))
    "grand total" [ [ "NULL"; "NULL"; "8" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list grand))

let test_having () =
  let r =
    run (db ()) "select grp, count(v) as c from fact group by grp having count(v) > 2"
  in
  Alcotest.(check (list (list string)))
    "having filters groups" [ [ "y"; "3" ] ]
    (List.map (List.map V.to_string) (List.map Array.to_list (R.rows r)))

let test_scan_error () =
  let cat = tiny_catalog () in
  let db = Engine.Db.of_tables cat [] in
  match run db "select k from fact" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing table contents should fail"

(* NaN is a float value, not NULL. The aggregate accumulators once tested
   for "no value yet" with structural (=) against V.Null — harmless until a
   NaN arrives, because (=) on nan is false even against itself. Every
   engine must count NaN as present, let it poison SUM/AVG, and order it
   with the same total order (Float.compare: nan below every number, so
   MIN picks it and MAX ignores it). *)
let test_nan_aggregates () =
  let cat =
    Catalog.(
      add_table empty
        {
          tbl_name = "m";
          tbl_cols =
            [
              { col_name = "g"; col_ty = V.Tint; nullable = false };
              { col_name = "x"; col_ty = V.Tfloat; nullable = true };
            ];
          primary_key = [];
          unique_keys = [];
          foreign_keys = [];
        })
  in
  let rel =
    R.create [ "g"; "x" ]
      [
        [| i 1; f 1.5 |];
        [| i 1; f Float.nan |];
        [| i 2; f Float.nan |];
        [| i 2; V.Null |];
        [| i 2; f 2.0 |];
      ]
  in
  let db = Engine.Db.of_tables cat [ ("m", rel) ] in
  let sql =
    "SELECT g, COUNT(x) AS c, SUM(x) AS s, MIN(x) AS mn, MAX(x) AS mx, \
     AVG(x) AS a FROM m GROUP BY g"
  in
  let vec = run ~engine:Govern.Knobs.Vector db sql in
  let orc = Engine.Reference.run db (build cat sql) in
  (* bag_equal_approx can't see NaN = NaN (abs-diff on nan is false), so
     compare under the polymorphic total order instead *)
  let same what a b =
    Alcotest.(check bool) what true (compare (sorted_rows a) (sorted_rows b) = 0)
  in
  same "vector = reference over NaN" vec orc;
  let checked = ref 0 in
  List.iter
    (fun r ->
      let is_nan what = function
        | V.Float x -> Alcotest.(check bool) what true (Float.is_nan x)
        | v -> Alcotest.failf "%s: got %s" what (V.to_string v)
      in
      match Array.to_list r with
      | [ V.Int 1; V.Int c; s; mn; V.Float mx; a ] ->
          incr checked;
          Alcotest.(check int) "COUNT includes NaN" 2 c;
          is_nan "SUM poisoned by NaN" s;
          is_nan "MIN orders NaN below all" mn;
          Alcotest.(check (float 1e-9)) "MAX skips NaN" 1.5 mx;
          is_nan "AVG poisoned by NaN" a
      | [ V.Int 2; V.Int c; _; _; _; _ ] ->
          incr checked;
          (* NULL excluded, NaN counted *)
          Alcotest.(check int) "COUNT: NULL out, NaN in" 2 c
      | _ -> Alcotest.failf "unexpected row shape in %s" (R.to_string vec))
    (R.rows vec);
  Alcotest.(check int) "both groups present" 2 !checked

(* The per-box histograms record self time, so the boxes of a run add up
   to its exec.run_ms; what is left is the bracket around the root box. *)
let test_box_self_times_add_up () =
  let cat = tiny_catalog () in
  let n = 20_000 in
  let dims =
    R.create [ "id"; "label"; "region" ]
      (List.init 50 (fun j -> [| i j; s (string_of_int j); s "r" |]))
  in
  let fact =
    R.create [ "k"; "dim"; "grp"; "v" ]
      (List.init n (fun j ->
           [| i j; i (j mod 50); s (string_of_int (j mod 7)); i (j mod 13) |]))
  in
  let db = Engine.Db.of_tables cat [ ("dims", dims); ("fact", fact) ] in
  let g =
    build cat
      "select region, grp, sum(v) as s from (select grp, v, dim from fact \
       where v > 3) as t, dims where dim = id group by region, grp"
  in
  let hist = Obs.Metrics.histogram in
  let sums () =
    let total = List.fold_left (fun acc h -> acc +. Obs.Metrics.hist_sum (hist h)) 0. in
    ( total [ "exec.base_ms"; "exec.select_ms"; "exec.group_ms"; "exec.union_ms" ],
      total [ "exec.run_ms" ] )
  in
  ignore (Engine.Exec.run db g);
  let boxes0, run0 = sums () in
  for _ = 1 to 5 do
    ignore (Engine.Exec.run db g)
  done;
  let boxes1, run1 = sums () in
  let boxes = boxes1 -. boxes0 and run = run1 -. run0 in
  if not (boxes <= run && boxes >= 0.8 *. run) then
    Alcotest.failf "box self times sum to %.3f ms, exec.run_ms to %.3f ms" boxes run

(* [of_values_exact] keeps an INT/FLOAT mix boxed, and still types a
   column of one kind. *)
let test_column_exact () =
  let module C = Engine.Column in
  let kind vals =
    match (C.of_values_exact vals).C.data with
    | C.Ints _ -> "ints"
    | C.Floats _ -> "floats"
    | C.Boxed _ -> "boxed"
    | _ -> "other"
  in
  Alcotest.(check string) "ints" "ints" (kind [| V.Int 1; V.Null; V.Int 2 |]);
  Alcotest.(check string) "floats" "floats" (kind [| V.Float 0.5; V.Null |]);
  Alcotest.(check string) "mix" "boxed" (kind [| V.Int 7; V.Null; V.Float 0.5 |]);
  let c = C.of_values_exact [| V.Int 7; V.Null; V.Float 0.5 |] in
  Alcotest.(check bool) "exact values" true
    (C.to_values c = [| V.Int 7; V.Null; V.Float 0.5 |] && C.is_null c 1)

(* ---------------- typed storage ---------------- *)

module C = Engine.Column

(* Everything an encode fixes: kind, every buffer slot (the padding under
   NULLs included), the null mask and the dictionary's order. *)
let dump_column (c : C.t) =
  let n = C.length c in
  let slots f = String.concat "," (List.init n f) in
  let ints a = slots (fun i -> string_of_int (Bigarray.Array1.get a i)) in
  let data =
    match c.C.data with
    | C.Ints a -> "ints " ^ ints a
    | C.Dates a -> "dates " ^ ints a
    | C.Floats a ->
        "floats "
        ^ slots (fun i -> Int64.to_string (Int64.bits_of_float (Bigarray.Array1.get a i)))
    | C.Bools b -> "bools " ^ String.escaped (Bytes.to_string b)
    | C.Dict (codes, dict) ->
        "dict " ^ ints codes ^ " | " ^ String.concat "," (Array.to_list dict)
    | C.Boxed a -> "boxed " ^ String.concat "," (Array.to_list (Array.map V.to_string a))
  in
  let nulls =
    match c.C.nulls with None -> "none" | Some m -> String.escaped (Bytes.to_string m)
  in
  data ^ " nulls " ^ nulls

let same_batch (a : C.batch) (b : C.batch) =
  a.C.nrows = b.C.nrows
  && a.C.names = b.C.names
  && Array.for_all2 (fun x y -> dump_column x = dump_column y) a.C.cols b.C.cols

type family = Fint | Ffloat | Fstr | Fdate | Fbool

(* Mostly values of the column's family, some NULLs, and now and then a
   value of another kind (an INT column receiving a FLOAT, ...). *)
let gen_value fam =
  let open QCheck.Gen in
  let own =
    match fam with
    | Fint -> map (fun x -> V.Int x) (int_range (-5) 5)
    | Ffloat -> map (fun x -> V.Float x) (float_range (-10.) 10.)
    | Fstr -> map (fun x -> V.Str x) (oneofl [ "a"; "b"; "c"; "d"; "e"; "f" ])
    | Fdate -> map (fun d -> V.date 1995 1 d) (int_range 1 28)
    | Fbool -> map (fun b -> V.Bool b) bool
  in
  let other =
    match fam with
    | Fint -> V.Float 0.5
    | Ffloat -> V.Int 3
    | Fstr -> V.Int 1
    | Fdate -> V.Str "x"
    | Fbool -> V.Int 0
  in
  frequency [ (2, return V.Null); (12, own); (1, return other) ]

(* A table, then appends to it. *)
let gen_appends =
  let open QCheck.Gen in
  let* fams = list_size (int_range 1 4) (oneofl [ Fint; Ffloat; Fstr; Fdate; Fbool ]) in
  let* null_prefix = list_repeat (List.length fams) (frequency [ (1, return true); (5, return false) ]) in
  let row ~first =
    map Array.of_list
      (flatten_l
         (List.map2
            (fun fam nul -> if first && nul then return V.Null else gen_value fam)
            fams null_prefix))
  in
  let* init = list_size (int_range 0 6) (row ~first:true) in
  let* appends = list_size (int_range 1 4) (list_size (int_range 0 4) (row ~first:false)) in
  return (List.length fams, init, appends)

let print_appends (width, init, appends) =
  let cols = List.init width (Printf.sprintf "c%d") in
  String.concat "\nappend:\n"
    (List.map (fun rows -> R.to_string (R.create cols rows)) (init :: appends))

let empty_db = Engine.Db.create Catalog.empty

(* [Db.append] of [appends] after a put of [init], against one put of
   everything: the same stored columns, for every batch along the line of
   appends (a later append leaves an earlier batch as it was), and for a
   second append from the line's first append, made after the line grew
   from it. *)
let append_equals_put cols init appends =
  let put rows = Engine.Db.batch (Engine.Db.put empty_db "t" (R.create cols rows)) "t" in
  let base = Engine.Db.put empty_db "t" (R.create cols init) in
  let line =
    List.fold_left (fun acc rows -> Engine.Db.append (List.hd acc) "t" rows :: acc) [ base ] appends
  in
  let m = List.length appends in
  let first = List.nth line (m - 1) in
  let branch = Engine.Db.append first "t" (List.concat appends) in
  same_batch (Engine.Db.batch branch "t") (put (List.concat (init :: List.hd appends :: appends)))
  && List.for_all2
       (fun db i ->
         same_batch (Engine.Db.batch db "t")
           (put (List.concat (init :: List.filteri (fun j _ -> j < m - i) appends))))
       line
       (List.init (m + 1) Fun.id)

let prop_append_equals_put =
  QCheck.Test.make ~name:"Db.append equals a put of the concatenation" ~count:300
    (QCheck.make ~print:print_appends gen_appends)
    (fun (width, init, appends) ->
      append_equals_put (List.init width (Printf.sprintf "c%d")) init appends)

let kind_of (c : C.t) =
  match c.C.data with
  | C.Ints _ -> "ints"
  | C.Floats _ -> "floats"
  | C.Dates _ -> "dates"
  | C.Bools _ -> "bools"
  | C.Dict (_, d) -> Printf.sprintf "dict %d" (Array.length d)
  | C.Boxed _ -> "boxed"

let encoded_rows = Obs.Metrics.counter "exec.col_decoded_rows"

let encodes f =
  let before = Obs.Metrics.counter_value encoded_rows in
  let x = f () in
  (x, Obs.Metrics.counter_value encoded_rows - before)

(* An append keeps a column's buffers and encodes only the new values,
   unless they change its kind: then that one column is re-encoded whole. *)
let test_append_kinds () =
  let case name init extra kind cost =
    Alcotest.(check bool) (name ^ ": equals a put") true
      (append_equals_put [ "c" ] init [ extra ]);
    let db = Engine.Db.put empty_db "t" (R.create [ "c" ] init) in
    let db, n = encodes (fun () -> Engine.Db.append db "t" extra) in
    Alcotest.(check string) (name ^ ": kind") kind (kind_of (Engine.Db.batch db "t").C.cols.(0));
    Alcotest.(check int) (name ^ ": rows encoded") cost n
  in
  let one v = [ [| v |] ] in
  case "ints + int" [ [| i 1 |]; [| V.Null |] ] (one (i 2)) "ints" 1;
  case "ints + float" [ [| i 1 |]; [| i 2 |] ] (one (f 0.5)) "boxed" 3;
  case "all-NULL prefix + int" [ [| V.Null |]; [| V.Null |] ] (one (i 1)) "ints" 3;
  case "dict + new strings" [ [| s "x" |]; [| s "y" |] ]
    [ [| s "z" |]; [| s "x" |]; [| s "w" |] ] "dict 4" 3;
  case "floats + int" [ [| f 0.5 |] ] (one (i 3)) "boxed" 2;
  case "empty + floats" [] (one (f 0.5)) "floats" 1

(* Column-based distinct counts equal a hash set of the boxed values, NULL
   counting as one value. *)
let prop_ndv_matches_rows =
  let gen =
    let open QCheck.Gen in
    let* fam = oneofl [ Fint; Ffloat; Fstr; Fdate; Fbool ] in
    let special = oneofl [ V.Float Float.nan; V.Float (-0.0); V.Float 0.0; V.Null ] in
    list_size (int_range 0 30) (frequency [ (6, gen_value fam); (1, special) ])
  in
  QCheck.Test.make ~name:"ndv statistics equal the row-based count" ~count:300
    (QCheck.make ~print:(fun vs -> String.concat "," (List.map V.to_string vs)) gen)
    (fun vals ->
      let seen = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace seen v ()) vals;
      let db =
        Engine.Db.put empty_db "t" (R.create [ "c" ] (List.map (fun v -> [| v |]) vals))
      in
      Catalog.col_ndv (Engine.Db.catalog db) "t" "c" = Some (Hashtbl.length seen))

(* Writes encode what they store; the scans after them encode nothing: not
   a table after INSERT or DELETE, nor a summary merged from their delta. *)
let test_scans_encode_nothing () =
  let sn =
    Mvstore.Session.create ~knobs:{ env_knobs with engine = Govern.Knobs.Vector } ()
  in
  let exec sql = ignore (Mvstore.Session.exec_sql sn sql) in
  exec
    "CREATE TABLE w (a INT NOT NULL, b VARCHAR, c FLOAT NOT NULL); INSERT INTO w \
     VALUES (1, 'x', 0.5), (2, NULL, 1.5), (3, 'y', 2.5); CREATE SUMMARY TABLE \
     sw AS SELECT b, COUNT(*) AS n, SUM(c) AS sc FROM w GROUP BY b;";
  let scan () =
    snd
      (encodes (fun () ->
           exec "SELECT a, b, c FROM w WHERE a > 0;";
           exec "SELECT b, n, sc FROM sw;"))
  in
  List.iter
    (fun write ->
      exec write;
      Alcotest.(check int) ("scan after " ^ write) 0 (scan ()))
    [
      "INSERT INTO w VALUES (4, 'z', 2.5), (5, NULL, 3.5);";
      "DELETE FROM w WHERE a = 2;";
    ];
  match Mvstore.Store.find (Mvstore.Session.store sn) "sw" with
  | Some e -> Alcotest.(check bool) "summary maintained, not refreshed" true e.Mvstore.Store.e_fresh
  | None -> Alcotest.fail "summary missing"

let suite =
  [
    Alcotest.test_case "3vl filtering" `Quick test_filter_3vl;
    Alcotest.test_case "hash join" `Quick test_join_basic;
    Alcotest.test_case "null join keys" `Quick test_join_null_keys_dont_match;
    Alcotest.test_case "cross product" `Quick test_cross_product;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "distinct aggregates" `Quick test_distinct_aggregates;
    Alcotest.test_case "grand total over empty" `Quick test_grand_total_empty_input;
    Alcotest.test_case "grouped empty input" `Quick test_grouped_empty_input;
    Alcotest.test_case "select distinct" `Quick test_select_distinct;
    Alcotest.test_case "scalar subquery" `Quick test_scalar_subquery;
    Alcotest.test_case "empty scalar subquery" `Quick
      test_scalar_subquery_empty_is_null;
    Alcotest.test_case "order by / limit" `Quick test_order_limit;
    Alcotest.test_case "figure 12 grouping sets" `Quick test_figure12;
    Alcotest.test_case "rollup execution" `Quick test_rollup_execution;
    Alcotest.test_case "having" `Quick test_having;
    Alcotest.test_case "missing contents" `Quick test_scan_error;
    Alcotest.test_case "NaN aggregates across engines" `Quick
      test_nan_aggregates;
    Alcotest.test_case "box self times add up" `Quick test_box_self_times_add_up;
    Alcotest.test_case "exact column of mixed values" `Quick test_column_exact;
    QCheck_alcotest.to_alcotest prop_append_equals_put;
    Alcotest.test_case "append across kinds" `Quick test_append_kinds;
    QCheck_alcotest.to_alcotest prop_ndv_matches_rows;
    Alcotest.test_case "scans after writes encode nothing" `Quick
      test_scans_encode_nothing;
  ]
