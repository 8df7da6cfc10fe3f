(* End-to-end metrics of an untraced run. The first five apply to every
   workload and form the result line; the rest are reported beside them
   where the workload has them. *)

exception Too_few_samples of string

(* A result-line percentile without enough samples beyond it fails the run. *)
let pct name ~p xs =
  match Stats.pct ~p xs with
  | Some (v, n) -> Report.metric ~n name "ms" v
  | None ->
      raise
        (Too_few_samples
           (Printf.sprintf "%s: %d samples, %d needed" name (List.length xs)
              (Stats.needed ~p)))

let metrics ~setup_s ~ops ~wall ~reads ~failed ~attempted ?writes ?recovery_s () =
  let gated =
    [
      Report.metric "setup_s" "s" setup_s;
      Report.metric ~n:ops "ops_per_s" "ops/s" (float_of_int ops /. wall);
      pct "read_p50_ms" ~p:0.5 reads;
      pct "read_p99_ms" ~p:0.99 reads;
      Report.metric "rss_peak_mb" "MB" (Report.rss_peak_mb ());
    ]
  in
  let extra =
    Report.metric ~n:attempted "failed_frac" "ratio"
      (float_of_int failed /. float_of_int (max 1 attempted))
    :: (match writes with
       | None -> []
       | Some w ->
           (* outside the result line: too few samples read 0, not a failure *)
           [
             Layers.pct "write_p50_ms" "ms" ~p:0.5 ~scale:1. w;
             Layers.pct "write_p95_ms" "ms" ~p:0.95 ~scale:1. w;
           ])
    @
    match recovery_s with
    | None -> []
    | Some s -> [ Report.metric "recovery_s" "s" s ]
  in
  (gated, extra)
