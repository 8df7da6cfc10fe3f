(* adhoc: an embedded, single-thread Session.exec_sql stream of almost
   always distinct analyst queries over a tiny dataset with 64 summary
   tables. Cold planning over many candidates does the work; execution is
   nearly free. *)

module W = Workload.Star_schema
module Se = Mvstore.Session
module J = Obs.Json

let batch = 256
let params seed = { W.default_params with W.n_custs = 2; trans_per_acct_year = 5; seed }

(* every non-empty group-by subset of six fact dimensions (63), plus one
   filtered summary *)
let summary_tables =
  let dims =
    [
      ("flid", "flid");
      ("faid", "faid");
      ("fpgid", "fpgid");
      ("year(date) AS year", "year(date)");
      ("month(date) AS month", "month(date)");
      ("qty", "qty");
    ]
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun t -> x :: t) s
  in
  let cols f keys = String.concat ", " (List.map f keys) in
  List.filter (( <> ) []) (subsets dims)
  |> List.mapi (fun i keys ->
         ( Printf.sprintf "mv%d" i,
           Printf.sprintf
             "SELECT %s, COUNT(*) AS c, SUM(qty) AS sq FROM Trans GROUP BY %s"
             (cols fst keys) (cols snd keys) ))
  |> fun l ->
  l
  @ [
      ( "mv_recent",
        "SELECT flid, COUNT(*) AS c, SUM(qty) AS sq FROM Trans WHERE year(date) \
         >= 1995 GROUP BY flid" );
    ]

let data seed =
  let p = params seed in
  J.Obj
    [
      ("n_custs", J.Int p.W.n_custs);
      ("trans_per_acct_year", J.Int p.W.trans_per_acct_year);
      ("summary_tables", J.Int (List.length summary_tables));
      ("plan_cache_entries", J.Int 256);
      ("clients", J.Int 1);
    ]

let setup seed () =
  let tables = W.generate (params seed) in
  let sn = Se.of_tables (W.catalog ()) tables in
  Setup.define_summaries sn summary_tables;
  (sn, tables)

let run ~seed ~seconds ~trace =
  let (sn, tables), setup_s =
    Setup.median ~times:(if trace then 1 else Setup.times) ~teardown:ignore (setup seed)
  in
  let oracle = Se.of_tables ~rewrite:false (W.catalog ()) tables in
  let failed = ref 0 and attempted = ref 0 in
  let answer s sql = try Some (Setup.table_of (Se.exec_sql s sql)) with _ -> None in
  let check sql got =
    incr attempted;
    match (got, answer oracle sql) with
    | Some g, Some e when Data.Relation.bag_equal_approx e g -> ()
    | got, e ->
        incr failed;
        Setup.report_failure sql
          (match (got, e) with
          | None, _ -> "statement failed"
          | _, None -> "oracle failed"
          | _ -> "answer differs from rewrite:false")
  in
  let warm = Gen.rng ~seed 21 in
  for _ = 1 to 64 do
    let sql = Gen.adhoc_query warm in
    check sql (answer sn sql)
  done;
  let rng = Gen.rng ~seed 20 in
  Gc.compact ();
  (* Batches of generated statements; the timed section covers only the
     statements themselves, the oracle check runs between batches. *)
  let pass ~seconds ~needed op =
    let lats = ref [] and n = ref 0 and busy = ref 0. in
    while !busy < seconds || (!n < needed && !busy < 3. *. seconds) do
      let sqls = List.init batch (fun _ -> Gen.adhoc_query rng) in
      let answers =
        List.map
          (fun sql ->
            let got, ms = op sql in
            lats := ms :: !lats;
            incr n;
            busy := !busy +. (ms /. 1e3);
            (sql, got))
          sqls
      in
      List.iter (fun (sql, got) -> check sql got) answers
    done;
    (!lats, !busy)
  in
  let timed sql =
    let t0 = Clock.now_ns () in
    let got = answer sn sql in
    (got, Clock.ms_between t0 (Clock.now_ns ()))
  in
  let outcome gated extra spans =
    { Report.attempted = !attempted; failed = !failed; gated; extra; spans }
  in
  if not trace then begin
    let lats, busy = pass ~seconds ~needed:(Stats.needed ~p:0.99) timed in
    let gated, extra =
      E2e.metrics ~setup_s ~ops:(List.length lats) ~wall:busy ~reads:lats
        ~failed:!failed ~attempted:!attempted ()
    in
    outcome gated extra []
  end
  else begin
    let refresh_ms =
      Setup.refresh_samples ~rounds:1
        { Mvstore.Shared.sn_db = Se.db sn; sn_store = Se.store sn }
    in
    let half = seconds /. 2. in
    let lats, _ = pass ~seconds:half ~needed:0 timed in
    let untraced_op_ms = Option.value ~default:0. (Stats.mean lats) in
    let tr = Span.create () in
    let rp = Replay.create tr in
    let op = ref 0 in
    let traced sql =
      incr op;
      let t0 = Clock.now_ns () in
      let got =
        Span.with_span tr ~op:!op ~parent:(-1) "op" (fun root ->
            Span.with_span tr ~op:!op ~parent:root "mvstore.exec_sql" (fun _ ->
                answer sn sql))
      in
      let ms = Clock.ms_between t0 (Clock.now_ns ()) in
      check sql
        (try Some (Replay.run rp ~op:!op (Se.db sn) (Se.store sn) sql) with _ -> None);
      (got, ms)
    in
    ignore (pass ~seconds ~needed:(Stats.needed ~p:0.99) traced);
    let spans = Span.spans tr in
    let gated =
      Layers.compute
        {
          Layers.spans;
          plans = rp.Replay.plans;
          untraced_op_ms;
          refresh_ms;
          checkpoint_ms = [];
          replay_records = 0;
          durable_bytes = 0.;
          user_bytes = 0;
          server_ms = (0., 0);
        }
    in
    outcome gated [] spans
  end
