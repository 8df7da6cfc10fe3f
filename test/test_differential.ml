(* Differential testing: the vectorized columnar engine against the naive
   reference evaluator, over a grammar of random queries on tiny data and
   hand-picked shapes. Any divergence is an engine bug. The generator is
   QCheck-driven (set QCHECK_SEED to reproduce a failure); the count is
   bounded so tier-1 stays fast. *)

module R = Data.Relation
module V = Data.Value
open Helpers

let db = lazy (tiny_db ())

(* -------- query grammar over the tiny schema -------- *)

let dims = [| "grp"; "dim"; "v" |]
let aggs = [| "COUNT(*)"; "COUNT(v)"; "SUM(v)"; "MIN(v)"; "MAX(v)"; "AVG(v)";
              "COUNT(DISTINCT v)"; "SUM(DISTINCT v)" |]
let filters =
  [| "v > 6"; "v IS NOT NULL"; "grp = 'x'"; "k % 2 = 0"; "v BETWEEN 5 AND 15" |]

type qspec = {
  qs_join : bool;           (* join fact with dims on dim = id *)
  qs_dims : int list;
  qs_aggs : int list;       (* empty = plain select *)
  qs_filters : int list;
  qs_distinct : bool;       (* only for plain selects *)
  qs_sets : bool;           (* grouping sets over the dims *)
}

let sql_of q =
  let dim_exprs = List.map (fun i -> dims.(i)) q.qs_dims in
  let select_dims =
    List.mapi (fun j e -> Printf.sprintf "%s AS d%d" e j) dim_exprs
  in
  let select_aggs =
    List.mapi (fun j i -> Printf.sprintf "%s AS a%d" aggs.(i) j) q.qs_aggs
  in
  let items =
    match (select_dims @ select_aggs, q.qs_aggs) with
    | [], _ -> [ "k" ]
    | l, _ -> l
  in
  let from = if q.qs_join then "fact, dims" else "fact" in
  let joinp = if q.qs_join then [ "dim = id" ] else [] in
  let where =
    match joinp @ List.map (fun i -> filters.(i)) q.qs_filters with
    | [] -> ""
    | ps -> " WHERE " ^ String.concat " AND " ps
  in
  let group =
    if q.qs_aggs = [] || dim_exprs = [] then ""
    else if q.qs_sets && List.length dim_exprs >= 2 then
      Printf.sprintf " GROUP BY GROUPING SETS((%s), (%s), ())"
        (String.concat ", " dim_exprs)
        (List.hd dim_exprs)
    else " GROUP BY " ^ String.concat ", " dim_exprs
  in
  let distinct = if q.qs_distinct && q.qs_aggs = [] then "DISTINCT " else "" in
  Printf.sprintf "SELECT %s%s FROM %s%s%s" distinct (String.concat ", " items)
    from where group

let gen_subset arr n =
  QCheck.Gen.(
    list_size (int_range 0 n) (int_bound (Array.length arr - 1))
    >|= List.sort_uniq compare)

let gen_spec =
  QCheck.Gen.(
    let* qs_join = bool in
    let* qs_dims = gen_subset dims 2 in
    let* has_aggs = bool in
    let* qs_aggs =
      if has_aggs then
        list_size (int_range 1 3) (int_bound (Array.length aggs - 1))
        >|= List.sort_uniq compare
      else return []
    in
    let* qs_filters = gen_subset filters 2 in
    let* qs_distinct = bool in
    let* qs_sets = bool in
    return { qs_join; qs_dims; qs_aggs; qs_filters; qs_distinct; qs_sets })

let agree spec =
  let db = Lazy.force db in
  let sql = sql_of spec in
  let g = build (Engine.Db.catalog db) sql in
  let fast = Engine.Exec.with_engine Engine.Exec.Vector (fun () -> Engine.Exec.run db g) in
  let slow = Engine.Reference.run db g in
  if not (R.bag_equal_approx fast slow) then
    QCheck.Test.fail_reportf
      "vector and reference disagree on %s\nvector:\n%s\nreference:\n%s" sql
      (R.to_string fast) (R.to_string slow)
  else begin
    (* and the unparser must round-trip the graph *)
    let printed = Qgm.Unparse.to_sql g in
    let again =
      try Engine.Exec.run db (build (Engine.Db.catalog db) printed)
      with e ->
        QCheck.Test.fail_reportf "unparse of %s does not rebuild (%s): %s" sql
          (Printexc.to_string e) printed
    in
    if R.bag_equal_approx fast again then true
    else
      QCheck.Test.fail_reportf "unparse changes semantics of %s -> %s" sql
        printed
  end

let prop_engines_agree =
  QCheck.Test.make ~name:"vector engine matches reference" ~count:500
    (QCheck.make ~print:sql_of gen_spec)
    agree

(* a few hand-picked shapes the generator may under-sample *)
let fixed_cases =
  [
    "SELECT k FROM fact, dims WHERE dim = id AND v > 6";
    "SELECT grp, COUNT(*) AS c FROM fact GROUP BY grp";
    "SELECT COUNT(*) AS c FROM fact WHERE v > 1000";
    "SELECT DISTINCT grp, dim FROM fact";
    "SELECT region, SUM(v) AS s FROM fact, dims WHERE dim = id GROUP BY region";
    "SELECT grp, dim, COUNT(*) AS c FROM fact GROUP BY GROUPING SETS((grp, dim), (grp), ())";
    "SELECT k, (SELECT COUNT(*) FROM dims) AS n FROM fact";
    "SELECT grp, COUNT(*) AS c FROM fact GROUP BY grp HAVING COUNT(*) > 2";
    (* CASE in outputs and in WHERE; the [100 / (v - 5)] arm would divide
       by zero on the row where v = 5, which an earlier arm takes *)
    "SELECT k, CASE WHEN v > 6 THEN 'big' WHEN v IS NULL THEN 'none' ELSE 'small' END \
     AS c FROM fact";
    "SELECT k, CASE WHEN v = 5 THEN 0 ELSE 100 / (v - 5) END AS q FROM fact";
    "SELECT k FROM fact WHERE CASE WHEN v IS NULL THEN k > 3 WHEN v = 5 THEN 1 = 1 \
     ELSE 100 / (v - 5) > 10 END";
    "SELECT k, label FROM fact, dims WHERE dim = id AND CASE WHEN region IS NULL THEN \
     v > 6 ELSE k < 4 END";
    (* SUM(CASE ...) over a filtered one-table select: the group evaluates
       the CASE through the select's selection *)
    "SELECT grp, SUM(CASE WHEN v > 6 THEN v ELSE 0 END) AS s, SUM(CASE WHEN v = 5 THEN 0 \
     ELSE 100 / (v - 5) END) AS q FROM fact WHERE k > 1 GROUP BY grp";
    (* DISTINCT aggregates: v repeats 7 and has a NULL *)
    "SELECT grp, COUNT(DISTINCT v) AS c, SUM(DISTINCT v) AS s FROM fact WHERE k > 1 \
     GROUP BY grp";
    "SELECT grp, dim, COUNT(DISTINCT v) AS c, SUM(DISTINCT v) AS s, AVG(DISTINCT v) AS a, \
     MAX(DISTINCT v) AS m, COUNT(v) AS cv FROM fact GROUP BY GROUPING SETS((grp, dim), \
     (grp), ())";
    "SELECT COUNT(DISTINCT v) AS c, SUM(DISTINCT v) AS s FROM fact WHERE v > 1000";
    "SELECT COUNT(DISTINCT v) AS c, SUM(DISTINCT v) AS s FROM fact WHERE k <> 1";
    "SELECT region, COUNT(DISTINCT grp) AS c, COUNT(DISTINCT v) AS cv FROM fact, dims \
     WHERE dim = id GROUP BY region";
    (* UNION [ALL] with duplicate and NULL rows *)
    "SELECT grp, v FROM fact UNION SELECT grp, v FROM fact WHERE v > 6 OR v IS NULL";
    "SELECT grp, v FROM fact UNION ALL SELECT grp, v FROM fact WHERE v > 6 OR v IS NULL";
    "SELECT region FROM dims UNION SELECT grp FROM fact";
    "SELECT region FROM dims UNION ALL SELECT region FROM dims";
    "SELECT v FROM fact UNION SELECT id FROM dims";
    "SELECT grp, COUNT(*) AS c, COUNT(DISTINCT v) AS cv FROM (SELECT grp, v FROM fact \
     UNION ALL SELECT grp, v FROM fact WHERE k > 3) AS u GROUP BY grp";
    (* INT and FLOAT values mixed in one column stay exact: the INT rows
       divide as INT/INT (7 / 2 = 3), as in Eval *)
    "SELECT k, CASE WHEN v > 6 THEN v ELSE 0.5 END / 2 AS q FROM fact";
    "SELECT x / 2 AS q FROM (SELECT v AS x FROM fact UNION ALL SELECT v * 1.5 FROM fact \
     WHERE k > 4) AS u";
  ]

let test_fixed () =
  let db = Lazy.force db in
  List.iter
    (fun sql ->
      let g = build (Engine.Db.catalog db) sql in
      Alcotest.(check bool) sql true
        (R.bag_equal_approx
           (Engine.Exec.with_engine Engine.Exec.Vector (fun () -> Engine.Exec.run db g))
           (Engine.Reference.run db g)))
    fixed_cases

(* [bag_equal_approx] takes INT 7 for FLOAT 7.0; these compare the printed
   values, so a column mixing INT and FLOAT must keep each value's type. *)
let exact_cases =
  [
    "SELECT k, CASE WHEN v > 6 THEN v ELSE 0.5 END AS c FROM fact";
    "SELECT k, -CASE WHEN v > 6 THEN v ELSE 0.5 END AS c FROM fact";
    "SELECT k, COALESCE(v, 0.5) AS c FROM fact";
    "SELECT v FROM fact UNION ALL SELECT v * 1.5 FROM fact";
    "SELECT v FROM fact UNION SELECT v * 1.5 FROM fact";
    "SELECT grp, SUM(CASE WHEN v > 6 THEN v ELSE 0.5 END) AS s FROM fact GROUP BY grp";
  ]

let test_exact_types () =
  let db = Lazy.force db in
  let render r =
    List.sort compare
      (List.map
         (fun row -> String.concat "|" (Array.to_list (Array.map V.to_string row)))
         (R.rows r))
  in
  List.iter
    (fun sql ->
      let g = build (Engine.Db.catalog db) sql in
      Alcotest.(check (list string)) sql
        (render (Engine.Reference.run db g))
        (render (Engine.Exec.with_engine Engine.Exec.Vector (fun () -> Engine.Exec.run db g))))
    exact_cases

(* -------- typed kernels: comparisons and integer group keys -------- *)

(* One table whose columns cover each physical column type the typed
   kernels handle, with and without NULL masks: NaN and signed zeros among
   the floats, negative and NULL group keys, a key column whose range is too
   wide for direct indexing, and a divisor column with zeros. [one] has a
   single row, so joining it changes no answer, only the plan's shape. *)
let typed_db =
  lazy
    (let open Catalog in
     let col name ty nullable = { col_name = name; col_ty = ty; nullable } in
     let table name cols =
       {
         tbl_name = name;
         tbl_cols = cols;
         primary_key = [];
         unique_keys = [];
         foreign_keys = [];
       }
     in
     let cat =
       add_table
         (add_table empty
            (table "kt"
               [
                 col "k" V.Tint false; col "i" V.Tint true; col "i2" V.Tint false;
                 col "f" V.Tfloat true; col "f2" V.Tfloat false;
                 col "d" V.Tdate false; col "dn" V.Tdate true;
                 col "s" V.Tstr true; col "s2" V.Tstr false;
                 col "g" V.Tint true; col "w" V.Tint false;
                 col "z" V.Tint true; col "v" V.Tint true;
               ]))
         (table "one" [ col "x" V.Tint false ])
     in
     let wide = 4_000_000_000_000_000 in
     let row k i i2 f f2 dd dn s s2 g w z v =
       [| V.Int k; i; V.Int i2; f; V.Float f2; dd; dn; s; V.Str s2; g; V.Int w; z; v |]
     in
     let kt =
       R.create
         [ "k"; "i"; "i2"; "f"; "f2"; "d"; "dn"; "s"; "s2"; "g"; "w"; "z"; "v" ]
         [
           row 1 (i 5) 5 (f 1.5) 1.5 (d 1995 1 1) V.Null (s "a") "a" (i (-3)) (-wide)
             (i 0) (i 10);
           row 2 V.Null (-2) (f Float.nan) Float.nan (d 1996 6 15) (d 1996 6 15) V.Null
             "b" (i (-3)) 0 (i 2) (i 20);
           row 3 (i (-7)) 0 V.Null (-0.0) (d 1994 12 31) (d 1994 1 1) (s "c") "c"
             V.Null wide V.Null (i 5);
           row 4 (i 0) 9 (f (-2.0)) 0.0 (d 1995 1 1) V.Null (s "a") "a" (i 7) max_int
             (i (-1)) V.Null;
           row 5 (i 12) 12 (f 0.0) 2.5 (d 1997 3 3) (d 1997 3 3) (s "b") "d" (i 0)
             (-1) (i 3) (i 7);
           row 6 (i 5) 3 (f 2.5) Float.nan (d 1996 6 15) V.Null V.Null "b" V.Null wide
             (i 0) (i (-7));
           row 7 (i 3) 7 (f (-0.0)) (-3.5) (d 1993 5 5) (d 1993 5 5) (s "d") "e"
             (i (-3)) min_int (i 5) (i 8);
         ]
     in
     Engine.Db.of_tables cat [ ("kt", kt); ("one", R.create [ "x" ] [ [| i 1 |] ]) ])

(* The vector engine agrees with the reference on [sql]; returns the
   answer. *)
let engines_agree db sql =
  let g = build (Engine.Db.catalog db) sql in
  let slow = Engine.Reference.run db g in
  let got =
    try Engine.Exec.with_engine Engine.Exec.Vector (fun () -> Engine.Exec.run db g)
    with ex -> Alcotest.failf "%s raised %s" sql (Printexc.to_string ex)
  in
  if not (R.bag_equal_approx got slow) then
    Alcotest.failf "%s\ngot:\n%s\nreference:\n%s" sql (R.to_string got)
      (R.to_string slow);
  slow

let test_typed_comparisons () =
  let db = Lazy.force typed_db in
  let ints = [ "5"; "-3"; "2.5" ] and floats = [ "1.5"; "0"; "-0.0"; "(0.0 / 0.0)" ] in
  let dates = [ "DATE '1995-01-01'" ] and strs = [ "'b'"; "'bb'" ] in
  let cases =
    [ ("i", ints); ("i2", ints); ("f", floats); ("f2", floats); ("d", dates);
      ("dn", dates); ("s", strs); ("s2", strs) ]
  in
  List.iter
    (fun (c, consts) ->
      List.iter
        (fun k ->
          List.iter
            (fun op ->
              List.iter
                (fun p ->
                  List.iter
                    (fun where ->
                      ignore (engines_agree db ("SELECT k FROM kt WHERE " ^ where)))
                    [ p; "k > 1 AND " ^ p; p ^ " OR k = 1"; "NOT (" ^ p ^ ")" ])
                [ Printf.sprintf "%s %s %s" c op k; Printf.sprintf "%s %s %s" k op c ])
            [ "="; "<>"; "<"; "<="; ">"; ">=" ])
        consts)
    cases

(* Plain and DISTINCT aggregates (NaN and signed zeros among the floats,
   repeated and NULL values everywhere) over each group-key kind, fused,
   unfused and under grouping sets. *)
let test_typed_grouping () =
  let db = Lazy.force typed_db in
  let plain = "COUNT(*) AS c, COUNT(v) AS cv, SUM(v) AS sv, MIN(v) AS mn, MAX(v) AS mx, \
               AVG(v) AS av"
  and distinct =
    "COUNT(DISTINCT f) AS cf, COUNT(DISTINCT f2) AS cf2, COUNT(DISTINCT d) AS cd, \
     MIN(DISTINCT dn) AS md, COUNT(DISTINCT s) AS cs, MAX(DISTINCT s2) AS ms, \
     SUM(DISTINCT i) AS si, AVG(DISTINCT i) AS ai, COUNT(DISTINCT w) AS cw"
  in
  List.iter
    (fun aggs ->
      List.iter
        (fun key ->
          List.iter
            (fun where ->
              ignore
                (engines_agree db
                   (Printf.sprintf "SELECT %s, %s FROM kt%s GROUP BY %s" key aggs where
                      key)))
            [ ""; " WHERE i2 > 0"; " WHERE k > 1 AND s2 <> 'c'"; ", one WHERE i2 > 0" ])
        [ "g"; "w"; "d"; "dn"; "s"; "i" ];
      ignore
        (engines_agree db
           (Printf.sprintf
              "SELECT g, year(d) AS y, %s FROM kt WHERE f2 < 2 GROUP BY GROUPING SETS \
               ((g, year(d)), (g), ())"
              aggs)))
    [ plain; distinct ]

(* The filter, or an earlier CASE arm, keeps every row whose divisor is
   zero (or NULL) away from the division, so evaluating it on such a row
   would raise. *)
let test_filtered_division () =
  let db = Lazy.force typed_db in
  List.iter
    (fun sql -> ignore (engines_agree db sql))
    [
      "SELECT g, SUM(v / z) AS q, SUM(v % z) AS r FROM kt WHERE z <> 0 GROUP BY g";
      "SELECT g, SUM(v / z) AS q FROM kt, one WHERE z <> 0 GROUP BY g";
      "SELECT SUM(i2 / z) AS q FROM kt WHERE k > 1 AND z > 0";
      "SELECT k, CASE WHEN f > 1 THEN f WHEN d < DATE '1995-06-01' THEN 0.5 END AS c, \
       CASE WHEN z = 0 THEN NULL ELSE v / z END AS q FROM kt WHERE k > 1";
      "SELECT CASE WHEN s IS NULL THEN 'none' ELSE s END AS sk, SUM(CASE WHEN z = 0 \
       THEN 0 ELSE v / z END) AS q, COUNT(DISTINCT CASE WHEN g < 0 THEN 0 ELSE g END) AS \
       cg FROM kt WHERE k > 1 GROUP BY CASE WHEN s IS NULL THEN 'none' ELSE s END";
      "SELECT k FROM kt, one WHERE CASE WHEN z = 0 THEN x = 1 ELSE v / z > 2 END";
    ]

(* The same aggregate with the select handed to its group (one quantifier,
   one consumer) and materialized (a second, single-row quantifier). *)
let test_fused_matches_unfused () =
  let db = Lazy.force typed_db in
  List.iter
    (fun (fused, unfused) ->
      let a = engines_agree db fused and b = engines_agree db unfused in
      Alcotest.(check bool) fused true (R.bag_equal_approx a b))
    [
      ( "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM kt WHERE i2 > 0 GROUP BY g",
        "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM kt, one WHERE i2 > 0 GROUP BY g" );
      ( "SELECT year(d) AS y, SUM(i2 * f) AS s FROM kt WHERE f > 0.5 GROUP BY year(d)",
        "SELECT year(d) AS y, SUM(i2 * f) AS s FROM kt, one WHERE f > 0.5 GROUP BY \
         year(d)" );
      ( "SELECT s, MIN(w) AS m FROM kt WHERE s2 >= 'b' AND i2 <> 12 GROUP BY s",
        "SELECT s, MIN(w) AS m FROM kt, one WHERE s2 >= 'b' AND i2 <> 12 GROUP BY s" );
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engines_agree;
    Alcotest.test_case "fixed shapes" `Quick test_fixed;
    Alcotest.test_case "mixed INT and FLOAT stay exact" `Quick test_exact_types;
    Alcotest.test_case "typed comparisons" `Quick test_typed_comparisons;
    Alcotest.test_case "typed grouping" `Quick test_typed_grouping;
    Alcotest.test_case "filtered division" `Quick test_filtered_division;
    Alcotest.test_case "fused matches unfused" `Quick test_fused_matches_unfused;
  ]
