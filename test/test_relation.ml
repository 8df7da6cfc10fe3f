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

(* Stored tables are typed columns: a put then a get hands back every
   value with its own constructor and payload, floats to the bit. *)
let same_value a b =
  match (a, b) with
  | V.Float x, V.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let gen_table =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (2, return V.Null);
        (3, map (fun x -> V.Int x) (int_range (-3) 3));
        (3, map (fun x -> V.Float x) (oneofl [ 0.0; -0.0; Float.nan; 1.5; -2.0; 1e300 ]));
        (2, map (fun x -> V.Str x) (oneofl [ ""; "a"; "b" ]));
        (2, map (fun d -> V.date 1999 12 d) (int_range 1 31));
        (2, map (fun b -> V.Bool b) bool);
      ]
  in
  (* a column draws from one or two kinds, or is all NULL *)
  let column_gen =
    frequency
      [
        (1, return (return V.Null));
        (4, map (fun v -> oneof [ return V.Null; return v ]) value);
        (4, map2 (fun a b -> oneofl [ a; b; V.Null ]) value value);
        (3, return value);
      ]
  in
  let* width = int_range 1 4 in
  let* cols = list_repeat width column_gen in
  let* n = frequency [ (1, return 0); (6, int_range 1 12) ] in
  let* rows = list_repeat n (flatten_l cols) in
  return (List.init width (Printf.sprintf "c%d"), List.map Array.of_list rows)

let prop_stored_round_trip =
  QCheck.Test.make ~name:"stored table round-trips every value" ~count:300
    (QCheck.make
       ~print:(fun (cols, rows) -> R.to_string (R.create cols rows))
       gen_table)
    (fun (cols, rows) ->
      let db = Engine.Db.put (Engine.Db.create Catalog.empty) "t" (R.create cols rows) in
      let back = Engine.Db.get_exn db "t" in
      Array.to_list (R.columns back) = cols
      && List.length (R.rows back) = List.length rows
      && List.for_all2
           (fun a b -> Array.length a = Array.length b && Array.for_all2 same_value a b)
           rows (R.rows back))

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
    QCheck_alcotest.to_alcotest prop_stored_round_trip;
  ]
