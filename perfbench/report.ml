(* Run header, metric lines and the final result line. *)

module J = Obs.Json

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_n : int;  (** samples behind the value; 0 = the layer did no such work *)
}

let metric ?(n = 1) name unit value =
  { m_name = name; m_unit = unit; m_value = value; m_n = n }

(* Peak resident set (VmHWM) of this process in MB. Column data lives in
   Bigarrays outside the OCaml heap, so heap statistics would miss it. *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

let astql_settings () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> String.length kv > 6 && String.sub kv 0 6 = "ASTQL_")
  |> List.sort compare
  |> List.map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
             (String.sub kv 0 i, J.Str (String.sub kv (i + 1) (String.length kv - i - 1)))
         | None -> (kv, J.Str ""))

let header ~workload ~seed ~seconds ~trace ~data =
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("seconds", J.Int seconds);
      ("trace", J.Bool trace);
      ("commit",
        J.Str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")));
      ("ocaml", J.Str Sys.ocaml_version);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("engine", J.Str (Engine.Exec.engine_to_string (Engine.Exec.engine ())));
      ("data", data);
      ("astql_settings", J.Obj (astql_settings ()));
    ]

let metric_json m =
  J.Obj
    [
      ("value", J.Float m.m_value);
      ("unit", J.Str m.m_unit);
      ("n", J.Int m.m_n);
    ]

let print_metric m =
  Printf.printf "metric %-32s %14.4f %-6s n=%d\n" m.m_name m.m_value m.m_unit
    m.m_n

(* The last line of standard output, the one a benchmark runner reads:
   correctness, operation counts and the result metrics. *)
let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun m ->
                     ( m.m_name,
                       J.Obj
                         [ ("value", J.Float m.m_value); ("unit", J.Str m.m_unit) ] ))
                   metrics) );
          ]))

(* What a workload run hands back to the command line. *)
type outcome = {
  attempted : int;
  failed : int;
  gated : metric list;  (** the result line's metrics for this mode *)
  extra : metric list;  (** reported and saved, but not in the result line *)
  spans : Span.span list;  (** traced runs only *)
}
