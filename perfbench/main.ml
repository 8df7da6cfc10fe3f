(* The benchmark's command line:

     main --workload dashboard|adhoc|ingest --seed N --seconds S --trace 0|1

   Prints a run header, one line per metric (name, value, unit, sample
   count), and as its last line the result object; writes the same, plus
   the spans of a traced run, to perfbench/results/. Exits non-zero when any
   operation failed or returned a wrong answer. *)

open Perfbench
module J = Obs.Json

let workloads =
  [
    ("dashboard", (Dashboard.data, Dashboard.run));
    ("adhoc", (Adhoc.data, Adhoc.run));
    ("ingest", (Ingest.data, Ingest.run));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage =
    "main --workload dashboard|adhoc|ingest --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated data and statements");
      ("--seconds", Arg.Set_int seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let data, run =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  let traced = !trace = 1 in
  let header =
    Report.header ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced
      ~data:(data !seed)
  in
  print_endline ("header " ^ J.to_string header);
  match run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:traced with
  | exception E2e.Too_few_samples msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      exit 1
  | o ->
      let all = o.Report.gated @ o.extra in
      List.iter Report.print_metric all;
      Setup.ensure_dir Setup.results_dir;
      let file =
        Filename.concat Setup.results_dir
          (Printf.sprintf "%s-seed%d-trace%d.json" !workload !seed !trace)
      in
      J.to_file file
        (J.Obj
           ([
              ("header", header);
              ("attempted", J.Int o.attempted);
              ("failed", J.Int o.failed);
              ("metrics", J.Obj (List.map (fun m -> (m.Report.m_name, Report.metric_json m)) all));
            ]
           @ if traced then [ ("spans", Span.to_json o.spans) ] else []));
      Printf.printf "wrote %s\n" file;
      let correct = o.failed = 0 in
      Report.print_result ~correct ~attempted:o.attempted ~failed:o.failed o.gated;
      exit (if correct then 0 else 1)
