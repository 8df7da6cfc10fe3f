(* Derived properties: nullability analysis and key detection. *)

open Helpers
module P = Astmatch.Props
module G = Qgm.Graph

let nullable sql col =
  let cat = tiny_catalog () in
  let g = build cat sql in
  Qgm.Typing.column_nullable cat g (G.root g) col

let test_base_nullability () =
  Alcotest.(check bool) "not null col" false (nullable "select k, v from fact" "k");
  Alcotest.(check bool) "nullable col" true (nullable "select k, v from fact" "v")

let test_expr_nullability () =
  Alcotest.(check bool) "arith over not-null" false
    (nullable "select k + 1 as k1 from fact" "k1");
  Alcotest.(check bool) "arith over nullable" true
    (nullable "select v + 1 as v1 from fact" "v1");
  Alcotest.(check bool) "is null is boolean" false
    (nullable "select v is null as b from fact" "b");
  Alcotest.(check bool) "null literal" true
    (nullable "select null as n from fact" "n");
  Alcotest.(check bool) "coalesce with constant" false
    (nullable "select coalesce(v, 0) as c from fact" "c")

let test_aggregate_nullability () =
  Alcotest.(check bool) "count never null" false
    (nullable "select grp, count(v) as c from fact group by grp" "c");
  Alcotest.(check bool) "count(*) never null" false
    (nullable "select grp, count(*) as c from fact group by grp" "c");
  Alcotest.(check bool) "sum may be null" true
    (nullable "select grp, sum(v) as s from fact group by grp" "s");
  Alcotest.(check bool) "grouping col inherits" false
    (nullable "select grp, count(*) as c from fact group by grp" "grp")

let test_cube_nullability () =
  (* a grouping column missing from some cuboid is NULL-padded *)
  Alcotest.(check bool) "padded column nullable" true
    (nullable
       "select grp, k, count(*) as c from fact group by grouping sets((grp, k), (grp))"
       "k");
  Alcotest.(check bool) "column in every set keeps base nullability" false
    (nullable
       "select grp, k, count(*) as c from fact group by grouping sets((grp, k), (grp))"
       "grp")

let test_scalar_subquery_nullable () =
  Alcotest.(check bool) "scalar subquery output may be empty" true
    (nullable "select k, (select id from dims) as x from fact" "x")

let test_keys () =
  let cat = tiny_catalog () in
  let g = build cat "select k from fact" in
  let base_id =
    List.find
      (fun id -> Qgm.Box.is_base (G.box g id))
      (G.reachable g (G.root g))
  in
  Alcotest.(check bool) "pk cols are key" true
    (P.cols_are_key cat g base_id [ "k" ]);
  Alcotest.(check bool) "non key" false (P.cols_are_key cat g base_id [ "dim" ]);
  Alcotest.(check string) "base table name" "fact"
    (Option.get (P.base_table_of g base_id))

let test_group_keys () =
  let cat = tiny_catalog () in
  let g = build cat "select grp, count(*) as c from fact group by grp" in
  let group_id =
    List.find
      (fun id -> Qgm.Box.is_group (G.box g id))
      (G.reachable g (G.root g))
  in
  Alcotest.(check bool) "grouping cols are key of group output" true
    (P.cols_are_key cat g group_id [ "grp" ]);
  Alcotest.(check bool) "superset ok" true
    (P.cols_are_key cat g group_id [ "grp"; "c" ])

let suite =
  [
    Alcotest.test_case "base nullability" `Quick test_base_nullability;
    Alcotest.test_case "expression nullability" `Quick test_expr_nullability;
    Alcotest.test_case "aggregate nullability" `Quick test_aggregate_nullability;
    Alcotest.test_case "cube padding nullability" `Quick test_cube_nullability;
    Alcotest.test_case "scalar subquery nullability" `Quick
      test_scalar_subquery_nullable;
    Alcotest.test_case "base keys" `Quick test_keys;
    Alcotest.test_case "group keys" `Quick test_group_keys;
  ]
