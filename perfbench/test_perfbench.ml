(* The benchmark's own tests: generators are deterministic in the seed,
   every generated adhoc statement parses and builds against the catalog,
   and the percentile helper refuses tails it cannot support. *)

open Perfbench

let take n f = List.init n (fun _ -> f ())

let test_deterministic () =
  let stream seed =
    let rng = Gen.rng ~seed 20 in
    take 200 (fun () -> Gen.adhoc_query rng)
  in
  Alcotest.(check (list string)) "adhoc, same seed" (stream 7) (stream 7);
  Alcotest.(check bool) "adhoc, other seed" false (stream 7 = stream 8);
  let rounds seed = take 40 (Gen.rounds (Gen.rng ~seed 10) 10) in
  Alcotest.(check (list int)) "rounds, same seed" (rounds 3) (rounds 3);
  let mix seed = take 50 (Gen.mix (Gen.rng ~seed 30) ~every:5) in
  Alcotest.(check (list bool)) "mix, same seed" (mix 3) (mix 3);
  let d = Gen.dims_of (Workload.Star_schema.scaled 1) in
  let ins seed = Gen.insert (Gen.rng ~seed 50) d ~tids:[ 1; 2; 3 ] in
  Alcotest.(check (pair string int)) "insert, same seed" (ins 5) (ins 5)

let test_rounds_cover () =
  let next = Gen.rounds (Gen.rng ~seed:1 10) 10 in
  for _ = 1 to 5 do
    Alcotest.(check (list int)) "each round visits every query once"
      (List.init 10 Fun.id)
      (List.sort compare (take 10 next))
  done;
  let mix = Gen.mix (Gen.rng ~seed:1 30) ~every:5 in
  for _ = 1 to 20 do
    Alcotest.(check int) "one write per block" 1
      (List.length (List.filter Fun.id (take 5 mix)))
  done

let test_adhoc_builds () =
  let cat = Workload.Star_schema.catalog () in
  let rng = Gen.rng ~seed:1 20 in
  let distinct = Hashtbl.create 2048 in
  for _ = 1 to 2000 do
    let sql = Gen.adhoc_query rng in
    Hashtbl.replace distinct sql ();
    match Sqlsyn.Parser.parse_script sql with
    | [ Sqlsyn.Ast.Select q ] -> (
        try ignore (Qgm.Builder.build cat q)
        with Qgm.Builder.Sem_error m -> Alcotest.failf "%s: %s" sql m)
    | _ -> Alcotest.failf "not one query: %s" sql
    | exception Sqlsyn.Parser.Parse_error (m, _) -> Alcotest.failf "%s: %s" sql m
  done;
  Alcotest.(check bool) "almost all distinct" true (Hashtbl.length distinct > 1800)

let test_insert_parses () =
  let d = Gen.dims_of (Workload.Star_schema.scaled 1) in
  let sql, bytes = Gen.insert (Gen.rng ~seed:1 50) d ~tids:[ 10; 11 ] in
  (match Sqlsyn.Parser.parse_script sql with
  | [ Sqlsyn.Ast.Insert { ins_rows; _ } ] ->
      Alcotest.(check int) "one tuple per tid" 2 (List.length ins_rows)
  | _ -> Alcotest.failf "not one INSERT: %s" sql);
  Alcotest.(check bool) "payload bytes" true (bytes > 0 && bytes < String.length sql)

let samples n = List.init n float_of_int

let test_percentile_rule () =
  let some = function Some (v, n) -> Some (v, n) | None -> None in
  Alcotest.(check (option (pair (float 0.) int))) "p99 of 999 refused" None
    (some (Stats.pct ~p:0.99 (samples 999)));
  Alcotest.(check (option (pair (float 0.) int))) "p99 of 1000"
    (Some (989., 1000))
    (some (Stats.pct ~p:0.99 (samples 1000)));
  Alcotest.(check (option (pair (float 0.) int))) "p95 of 199 refused" None
    (some (Stats.pct ~p:0.95 (samples 199)));
  Alcotest.(check int) "p95 needs 200" 200 (Stats.needed ~p:0.95);
  Alcotest.(check int) "p99 needs 1000" 1000 (Stats.needed ~p:0.99);
  Alcotest.(check (option (float 0.))) "median of 3" (Some 1.)
    (Stats.median [ 2.; 0.; 1. ]);
  (* whatever is reported keeps ten samples beyond it *)
  for n = 1 to 1500 do
    match Stats.pct ~p:0.99 (samples n) with
    | Some (v, _) ->
        let beyond = List.length (List.filter (fun x -> x > v) (samples n)) in
        if beyond < 10 then Alcotest.failf "n=%d: %d beyond p99" n beyond
    | None -> ()
  done

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "deterministic in the seed" `Quick test_deterministic;
          Alcotest.test_case "rounds and mix cover their blocks" `Quick test_rounds_cover;
          Alcotest.test_case "adhoc statements parse and build" `Quick test_adhoc_builds;
          Alcotest.test_case "ingest inserts parse" `Quick test_insert_parses;
        ] );
      ( "stats",
        [ Alcotest.test_case "tail percentiles need ten beyond" `Quick test_percentile_rule ] );
    ]
