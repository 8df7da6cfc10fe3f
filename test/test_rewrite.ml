(* The rewriter: graph assembly mechanics, cost estimation, and cost-based
   routing across multiple summary tables. *)

module G = Qgm.Graph
module R = Data.Relation
open Helpers

let star_db =
  lazy
    (let params =
       {
         Workload.Star_schema.default_params with
         n_custs = 4;
         trans_per_acct_year = 30;
       }
     in
     Engine.Db.of_tables
       (Workload.Star_schema.catalog ())
       (Workload.Star_schema.generate params))

(* Register one MV: returns (db', mv record). *)
let with_mv db name sql =
  let cat = Engine.Db.catalog db in
  let ag = build cat sql in
  let rel = Engine.Exec.run db ag in
  let cols = Qgm.Typing.infer_outputs cat ag in
  let cat2 =
    Catalog.add_table cat
      {
        Catalog.tbl_name = name;
        tbl_cols =
          List.map
            (fun (n, ty) -> { Catalog.col_name = n; col_ty = ty; nullable = true })
            cols;
        primary_key = [];
        unique_keys = [];
        foreign_keys = [];
      }
  in
  let db = Engine.Db.put (Engine.Db.with_catalog db cat2) name rel in
  (db, { Astmatch.Rewrite.mv_name = name; mv_graph = ag; mv_version = 0 })

let test_apply_preserves_presentation () =
  let db = Lazy.force star_db in
  let db, mv =
    with_mv db "m1" "select flid, count(*) as c from Trans group by flid"
  in
  let cat = Engine.Db.catalog db in
  let qg =
    build cat
      "select flid, count(*) as c from Trans group by flid order by c desc \
       limit 3"
  in
  match Astmatch.Rewrite.best ~cat qg [ mv ] with
  | None -> Alcotest.fail "expected rewrite"
  | Some (g', _) ->
      let pres = G.presentation g' in
      Alcotest.(check int) "order keys kept" 1 (List.length pres.G.order_by);
      Alcotest.(check (option int)) "limit kept" (Some 3) pres.G.limit;
      let direct = Engine.Exec.run db qg in
      let via = Engine.Exec.run db g' in
      Alcotest.(check int) "limited rows" 3 (R.cardinality via);
      check_rows "ordered results equal" direct via

let test_estimate_cost_counts_scans () =
  let db = Lazy.force star_db in
  let cat = Engine.Db.catalog db in
  let trans_rows =
    float_of_int (Option.get (Catalog.row_count cat "Trans"))
  in
  let g1 = build cat "select tid from Trans" in
  Alcotest.(check bool) "single scan" true
    (Astmatch.Cost.graph_cost cat g1 = trans_rows);
  let g2 =
    build cat "select t1.tid as a from Trans as t1, Trans as t2 where t1.tid = t2.tid"
  in
  Alcotest.(check bool) "self-join scans twice" true
    (Astmatch.Cost.graph_cost cat g2 = 2. *. trans_rows)

let test_best_picks_cheapest () =
  let db = Lazy.force star_db in
  (* coarse MV is much smaller than the fine one; both can answer *)
  let db, mv_fine =
    with_mv db "fine"
      "select flid, faid, year(date) as y, count(*) as c from Trans group by \
       flid, faid, year(date)"
  in
  let db, mv_coarse =
    with_mv db "coarse" "select flid, count(*) as c from Trans group by flid"
  in
  let cat = Engine.Db.catalog db in
  let qg = build cat "select flid, count(*) as c from Trans group by flid" in
  match Astmatch.Rewrite.best ~cat qg [ mv_fine; mv_coarse ] with
  | None -> Alcotest.fail "expected rewrite"
  | Some (g', steps) ->
      Alcotest.(check (list string)) "coarse chosen" [ "coarse" ]
        (List.map (fun (s : Astmatch.Rewrite.step) -> s.used_mv) steps);
      let direct = Engine.Exec.run db qg in
      Alcotest.(check bool) "equal" true
        (R.bag_equal_approx direct (Engine.Exec.run db g'))

let test_best_declines_non_improving () =
  let db = Lazy.force star_db in
  (* an MV as big as the base table buys nothing *)
  let db, mv = with_mv db "copy" "select tid, qty from Trans" in
  let cat = Engine.Db.catalog db in
  let qg = build cat "select tid, qty from Trans" in
  Alcotest.(check bool) "no step" true
    (Astmatch.Rewrite.best ~cat qg [ mv ] = None)

let test_multiple_asts_iterative () =
  let db = Lazy.force star_db in
  (* two different subqueries of one query, answerable by two MVs *)
  let db, mv1 =
    with_mv db "mv_year" "select year(date) as y, count(*) as c from Trans group by year(date)"
  in
  let db, mv2 =
    with_mv db "mv_loc" "select flid, count(*) as c from Trans group by flid"
  in
  let cat = Engine.Db.catalog db in
  let qg =
    build cat
      "select t1.y as y, t1.c as yc, t2.c as lc from (select year(date) as \
       y, count(*) as c from Trans group by year(date)) as t1, (select flid, \
       count(*) as c from Trans group by flid) as t2 where t1.c > t2.c"
  in
  match Astmatch.Rewrite.best ~cat qg [ mv1; mv2 ] with
  | None -> Alcotest.fail "expected rewrite"
  | Some (g', steps) ->
      Alcotest.(check int) "both MVs used" 2 (List.length steps);
      let direct = Engine.Exec.run db qg in
      Alcotest.(check bool) "equal" true
        (R.bag_equal_approx direct (Engine.Exec.run db g'))

let test_rewrites_inner_block_only () =
  let db = Lazy.force star_db in
  let db, mv =
    with_mv db "mv_inner"
      "select flid, year(date) as y, count(*) as c from Trans group by flid, \
       year(date)"
  in
  let cat = Engine.Db.catalog db in
  (* the outer aggregate itself does not match, but the inner block does *)
  let qg =
    build cat
      "select m, count(*) as n from (select flid, year(date) as y, count(*) \
       as c from Trans group by flid, year(date)) as t, (select max(qty) as \
       m from Trans) as u group by m"
  in
  match Astmatch.Rewrite.best ~cat qg [ mv ] with
  | None -> Alcotest.fail "expected inner rewrite"
  | Some (g', _) ->
      let direct = Engine.Exec.run db qg in
      Alcotest.(check bool) "equal" true
        (R.bag_equal_approx direct (Engine.Exec.run db g'))

let test_exact_replacement_shape () =
  let db = Lazy.force star_db in
  let db, mv =
    with_mv db "mv_exact" "select flid, count(*) as cnt from Trans group by flid"
  in
  let cat = Engine.Db.catalog db in
  let qg = build cat "select flid, count(*) as cnt from Trans group by flid" in
  match Astmatch.Rewrite.best ~cat qg [ mv ] with
  | None -> Alcotest.fail "expected rewrite"
  | Some (g', steps) ->
      Alcotest.(check bool) "exact step" true
        (List.for_all (fun (s : Astmatch.Rewrite.step) -> s.exact) steps);
      (* rewritten graph scans only the MV *)
      let leaves = G.base_leaves g' (G.root g') in
      Alcotest.(check int) "single leaf" 1 (List.length leaves);
      let sql = Qgm.Unparse.to_sql g' in
      Alcotest.(check bool) "scans the MV" true
        (let rec has i =
           i + 8 <= String.length sql
           && (String.sub sql i 8 = "mv_exact" || has (i + 1))
         in
         has 0)

(* A count re-derived from a summary as SUM(cnt) must still read 0 for a
   scalar aggregate over an empty selection, not NULL. *)
let test_derived_count_over_no_rows () =
  let db = Helpers.tiny_db () in
  List.iter
    (fun query ->
      let rewritten, equal =
        Helpers.rewrite_check db ~query
          ~ast:"SELECT v, COUNT(*) AS c FROM fact GROUP BY v"
      in
      Alcotest.(check bool) (query ^ " rewritten") true rewritten;
      Alcotest.(check bool) (query ^ " equal") true equal)
    [
      "SELECT COUNT(*) AS n FROM fact WHERE v = 1993";
      "SELECT COUNT(v) AS n FROM fact WHERE v = 1993";
    ]

let suite =
  [
    Alcotest.test_case "presentation preserved" `Quick
      test_apply_preserves_presentation;
    Alcotest.test_case "cost counts scans" `Quick test_estimate_cost_counts_scans;
    Alcotest.test_case "cheapest MV wins" `Quick test_best_picks_cheapest;
    Alcotest.test_case "non-improving declined" `Quick
      test_best_declines_non_improving;
    Alcotest.test_case "iterative multi-AST" `Quick test_multiple_asts_iterative;
    Alcotest.test_case "inner block rewrite" `Quick test_rewrites_inner_block_only;
    Alcotest.test_case "exact replacement" `Quick test_exact_replacement_shape;
    Alcotest.test_case "derived count over no rows" `Quick
      test_derived_count_over_no_rows;
  ]
