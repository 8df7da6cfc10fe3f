(* Relation container: schema discipline, bag operations, approximate
   equality. *)

module R = Data.Relation
module V = Data.Value
open Helpers

let mk () =
  R.create [ "a"; "b" ] [ [| i 1; s "x" |]; [| i 2; s "y" |]; [| i 1; s "x" |] ]

let test_create_checks_width () =
  Alcotest.check_raises "row width" (Invalid_argument
    "Relation.create: row width 1, schema width 2") (fun () ->
      ignore (R.create [ "a"; "b" ] [ [| i 1 |] ]))

let test_basics () =
  let r = mk () in
  Alcotest.(check int) "arity" 2 (R.arity r);
  Alcotest.(check int) "cardinality" 3 (R.cardinality r);
  Alcotest.(check int) "column index case-insensitive" 1 (R.column_index r "B");
  Alcotest.(check bool) "mem" true (R.mem_column r "A");
  Alcotest.(check bool) "not mem" false (R.mem_column r "z")

let test_project_reorders () =
  let r = R.project (mk ()) [ "b"; "a" ] in
  Alcotest.(check (list string)) "columns" [ "b"; "a" ]
    (Array.to_list (R.columns r));
  Alcotest.(check bool) "row content" true
    (List.hd (R.rows r) = [| s "x"; i 1 |])

let test_distinct () =
  let r = R.distinct (mk ()) in
  Alcotest.(check int) "dedup" 2 (R.cardinality r)

let test_distinct_null_grouping () =
  let r =
    R.distinct (R.create [ "a" ] [ [| V.Null |]; [| V.Null |]; [| i 1 |] ])
  in
  Alcotest.(check int) "nulls collapse" 2 (R.cardinality r)

let test_bag_equal () =
  let a = R.create [ "x" ] [ [| i 1 |]; [| i 2 |]; [| i 2 |] ] in
  let b = R.create [ "x" ] [ [| i 2 |]; [| i 1 |]; [| i 2 |] ] in
  let c = R.create [ "x" ] [ [| i 1 |]; [| i 2 |] ] in
  let d = R.create [ "x" ] [ [| i 1 |]; [| i 1 |]; [| i 2 |] ] in
  Alcotest.(check bool) "permuted bags equal" true (R.bag_equal a b);
  Alcotest.(check bool) "cardinality matters" false (R.bag_equal a c);
  Alcotest.(check bool) "multiplicity matters" false (R.bag_equal a d)

let test_bag_equal_by_name () =
  let a = R.create [ "x"; "y" ] [ [| i 1; i 2 |] ] in
  let b = R.create [ "y"; "x" ] [ [| i 2; i 1 |] ] in
  Alcotest.(check bool) "column reorder ok" true (R.bag_equal_by_name a b);
  Alcotest.(check bool) "order-sensitive variant" false (R.bag_equal a b)

let test_bag_equal_approx () =
  let a = R.create [ "x" ] [ [| f 100.0 |] ] in
  let b = R.create [ "x" ] [ [| f (100.0 +. 1e-10) |] ] in
  let c = R.create [ "x" ] [ [| f 100.1 |] ] in
  Alcotest.(check bool) "tiny drift ok" true (R.bag_equal_approx a b);
  Alcotest.(check bool) "real difference caught" false (R.bag_equal_approx a c);
  Alcotest.(check bool) "int/float mix" true
    (R.bag_equal_approx
       (R.create [ "x" ] [ [| i 2 |] ])
       (R.create [ "x" ] [ [| f 2.0 |] ]))

let test_sort_filter_append () =
  let r = mk () in
  let sorted = R.sort (fun x y -> V.compare y.(0) x.(0)) r in
  Alcotest.(check bool) "sorted desc" true
    ((List.hd (R.rows sorted)).(0) = i 2);
  let filtered = R.filter (fun row -> row.(0) = i 1) r in
  Alcotest.(check int) "filtered" 2 (R.cardinality filtered);
  let appended = R.append r [ [| i 9; s "z" |] ] in
  Alcotest.(check int) "appended" 4 (R.cardinality appended)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pp_contains_data () =
  let txt = R.to_string (mk ()) in
  Alcotest.(check bool) "row count shown" true (contains_sub txt "(3 rows)");
  Alcotest.(check bool) "header shown" true (contains_sub txt "| a ")

let test_append_ancestry () =
  let r0 = R.create [ "a" ] [ [| V.Int 0 |] ] in
  Alcotest.(check (list int)) "created: none" [] (R.ancestry r0);
  let r1 = R.append r0 [ [| V.Int 1 |] ] in
  let r2 = R.append r1 [] in
  Alcotest.(check (list int)) "newest first" [ R.id r1; R.id r0 ] (R.ancestry r2);
  Alcotest.(check (list int)) "filter starts afresh" []
    (R.ancestry (R.filter (fun _ -> true) r2));
  let last = ref r2 in
  for k = 1 to 20 do
    last := R.append !last [ [| V.Int k |] ]
  done;
  Alcotest.(check int) "bounded" 16 (List.length (R.ancestry !last))

let suite =
  [
    Alcotest.test_case "create checks width" `Quick test_create_checks_width;
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "project reorders" `Quick test_project_reorders;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "distinct groups nulls" `Quick test_distinct_null_grouping;
    Alcotest.test_case "bag equality" `Quick test_bag_equal;
    Alcotest.test_case "bag equality by name" `Quick test_bag_equal_by_name;
    Alcotest.test_case "approximate bag equality" `Quick test_bag_equal_approx;
    Alcotest.test_case "sort/filter/append" `Quick test_sort_filter_append;
    Alcotest.test_case "pretty printing" `Quick test_pp_contains_data;
    Alcotest.test_case "append ancestry" `Quick test_append_ancestry;
  ]
