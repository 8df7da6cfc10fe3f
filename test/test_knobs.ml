(* The configuration value: Knobs.of_env parses every ASTQL_* variable and
   rejects malformed values by name; the knobs of each CI configuration
   give the paper's answers unchanged; and two sessions with different
   knobs serve side by side on two domains without seeing each other's
   settings. *)

module K = Govern.Knobs
module R = Data.Relation
module Sess = Mvstore.Session
module PQ = Workload.Paper_queries

let lookup kvs var = List.assoc_opt var kvs

let contains s sub =
  let n = String.length sub and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* One row per variable: a valid value with the field it must set, and
   malformed values that must be rejected. *)
let table =
  [
    ( "ASTQL_EXEC",
      ("reference", fun k -> k.K.engine = K.Reference),
      [ "row"; "vectorised" ] );
    ( "ASTQL_VALIDATE",
      ("2", fun k -> k.K.validate = K.Every_candidate),
      [ "7"; "finally" ] );
    ("ASTQL_PROVE", ("define", fun k -> k.K.prove = K.At_define), [ "defne"; "3" ]);
    ( "ASTQL_DEADLINE_MS",
      ("7.5", fun k -> k.K.limits.Govern.Budget.bl_deadline_ms = Some 7.5),
      [ "abc"; "-5"; "nan"; "inf" ] );
    ( "ASTQL_MATCH_BUDGET",
      ("123", fun k -> k.K.limits.Govern.Budget.bl_matches = Some 123),
      [ "x"; "-1"; "1.5" ] );
    ( "ASTQL_FAULT_SEED",
      ("987654321", fun k -> k.K.fault_seed = Some 987654321),
      [ "12ab"; "seed" ] );
    ( "ASTQL_WIRE_STALL_MS",
      ("300", fun k -> k.K.wire_stall_ms = Some 300.),
      [ "-1"; "slow" ] );
  ]

let test_variable_table () =
  Alcotest.(check bool) "no variables: the defaults" true
    (K.of_env (lookup []) = Ok K.default);
  List.iter
    (fun (var, (good, holds), bads) ->
      (match K.of_env (lookup [ (var, good) ]) with
      | Ok k -> Alcotest.(check bool) (var ^ "=" ^ good) true (holds k)
      | Error m -> Alcotest.failf "%s=%s rejected: %s" var good m);
      Alcotest.(check bool) (var ^ " empty is unset") true
        (K.of_env (lookup [ (var, "") ]) = Ok K.default);
      List.iter
        (fun bad ->
          match K.of_env (lookup [ (var, bad) ]) with
          | Ok _ -> Alcotest.failf "%s=%S accepted" var bad
          | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "%s=%S: error names the variable and value (%s)"
                   var bad m)
                true
                (contains m var && contains m (Printf.sprintf "%S" bad)))
        bads)
    table

(* The old per-module parsers' rows: the budget variables together, and a
   bad value next to good ones still fails the whole parse. *)
let test_budget_rows () =
  (match
     K.of_env
       (lookup [ ("ASTQL_DEADLINE_MS", "7.5"); ("ASTQL_MATCH_BUDGET", "123") ])
   with
  | Ok k ->
      Alcotest.(check bool) "deadline from env" true
        (k.K.limits.Govern.Budget.bl_deadline_ms = Some 7.5);
      Alcotest.(check bool) "match budget from env" true
        (k.K.limits.Govern.Budget.bl_matches = Some 123)
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "empty env is unlimited" true
    (Govern.Budget.is_unlimited
       (Result.get_ok
          (K.of_env
             (lookup [ ("ASTQL_DEADLINE_MS", ""); ("ASTQL_MATCH_BUDGET", "") ])))
         .K.limits);
  Alcotest.(check bool) "one bad variable fails the parse" true
    (Result.is_error
       (K.of_env (lookup [ ("ASTQL_EXEC", "reference"); ("ASTQL_PROVE", "9") ])))

let test_set_and_render () =
  Alcotest.(check string) "default rendering"
    "engine=vector validate=final-plan prove=rewrite limits=unlimited"
    (K.to_string K.default);
  let k =
    Result.get_ok (K.set K.default "ASTQL_DEADLINE_MS" "5")
    |> fun k -> { k with K.greedy_derivation = false }
  in
  Alcotest.(check string) "limits and ablations rendered"
    "engine=vector validate=final-plan prove=rewrite limits=deadline=5ms \
     off=greedy-derivation"
    (K.to_string k);
  Alcotest.(check bool) "flag value rejected without the variable name" true
    (K.set K.default "ASTQL_EXEC" "row" = Error "expected vector or reference");
  Alcotest.check_raises "unknown variable"
    (Invalid_argument "Knobs.set: unknown variable ASTQL_NOPE") (fun () ->
      ignore (K.set K.default "ASTQL_NOPE" "1"))

(* ---------------- the CI configurations, in process ---------------- *)

let star_tables =
  lazy
    (Workload.Star_schema.generate
       {
         Workload.Star_schema.default_params with
         n_custs = 2;
         trans_per_acct_year = 10;
       })

let session knobs =
  Sess.of_tables ~knobs (Workload.Star_schema.catalog ())
    (Lazy.force star_tables)

let answer knobs (c : PQ.case) =
  let sn = session knobs in
  ignore
    (Sess.exec_sql sn
       (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" c.ast_name c.ast));
  Sess.run_query sn (Sqlsyn.Parser.parse_query c.query)

(* The knobs each CI leg sets through the environment. *)
let ci_legs =
  [
    ("ASTQL_EXEC=reference", { K.default with engine = K.Reference });
    ("ASTQL_VALIDATE=2", { K.default with validate = K.Every_candidate });
    ("ASTQL_PROVE=0", { K.default with prove = K.Prove_off });
    ("ASTQL_PROVE=2", { K.default with prove = K.At_define });
    ( "ASTQL_DEADLINE_MS=5",
      { K.default with limits = Govern.Budget.limits ~deadline_ms:5. () } );
  ]

let test_configuration_matrix () =
  List.iter
    (fun (c : PQ.case) ->
      let expected, steps = answer K.default c in
      Alcotest.(check bool)
        (Printf.sprintf "%s rewritten under the defaults" c.name)
        c.expect_rewrite (steps <> []);
      List.iter
        (fun (leg, knobs) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s" c.name leg)
            true
            (R.bag_equal_approx expected (fst (answer knobs c))))
        ci_legs)
    PQ.cases

(* ---------------- two sessions, two domains, two configurations ---- *)

let test_sessions_isolated () =
  let loader = session K.default in
  let defined = Hashtbl.create 8 in
  List.iter
    (fun (c : PQ.case) ->
      if not (Hashtbl.mem defined c.ast_name) then begin
        Hashtbl.add defined c.ast_name ();
        ignore
          (Sess.exec_sql loader
             (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" c.ast_name c.ast))
      end)
    PQ.cases;
  let shared = Sess.share loader in
  let checked = { K.default with engine = K.Reference; validate = K.Every_candidate } in
  let bare = { K.default with engine = K.Vector; validate = K.Validate_off } in
  let serve knobs () =
    let sn = Sess.attach ~knobs shared in
    List.init 3 (fun _ ->
        List.map
          (fun (c : PQ.case) ->
            let q = Sqlsyn.Parser.parse_query c.query in
            (Sess.explain sn q, fst (Sess.run_query sn q)))
          PQ.cases)
    |> List.concat
  in
  let d1 = Domain.spawn (serve checked) and d2 = Domain.spawn (serve bare) in
  let a = Domain.join d1 and b = Domain.join d2 in
  List.iter2
    (fun (explain_a, rel_a) (explain_b, rel_b) ->
      Alcotest.(check bool) "checked session reports its level" true
        (contains explain_a "validate=every-candidate"
        && contains explain_a "engine=reference");
      Alcotest.(check bool) "bare session reports its level" true
        (contains explain_b "validate=off" && contains explain_b "engine=vector");
      Alcotest.(check bool) "answers agree" true (R.bag_equal_approx rel_a rel_b))
    a b

let suite =
  [
    Alcotest.test_case "every variable: valid and malformed" `Quick
      test_variable_table;
    Alcotest.test_case "budget variables" `Quick test_budget_rows;
    Alcotest.test_case "set and render" `Quick test_set_and_render;
    Alcotest.test_case "paper queries under every CI configuration" `Quick
      test_configuration_matrix;
    Alcotest.test_case "two sessions with different knobs on two domains"
      `Quick test_sessions_isolated;
  ]
