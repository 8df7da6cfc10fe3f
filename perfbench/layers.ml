(* Per-layer metrics of a traced run, computed from its spans, the replay's
   plan reports and a few direct measurements. A metric whose layer did no
   such work on the workload reads 0 with n = 0; a tail percentile without
   enough samples beyond it reads 0 and keeps its sample count. *)

type inputs = {
  spans : Span.span list;
  plans : Replay.plan_info list;
  untraced_op_ms : float;  (** mean operation latency of the untraced pass *)
  refresh_ms : float list;  (** direct Store.refresh_full of each summary *)
  checkpoint_ms : float list;  (** direct Manager.checkpoint calls *)
  replay_records : int;  (** recovery report after the run *)
  durable_bytes : float;  (** WAL bytes plus amortized checkpoint bytes *)
  user_bytes : int;  (** inserted row bytes *)
  server_ms : float * int;  (** server.request_ms sum and count *)
}

let named n spans = List.filter (fun (s : Span.span) -> s.name = n) spans
let durs spans = List.map Span.ms spans
let sum_ms spans = Stats.sum (durs spans)

let sum_delta c spans =
  List.fold_left (fun acc s -> acc + Span.delta s c) 0 spans

let div a b = if b = 0. then 0. else a /. b

let pct name unit ~p ~scale xs =
  let n = List.length xs in
  match Stats.pct ~p xs with
  | Some (v, n) -> Report.metric ~n name unit (v *. scale)
  | None -> Report.metric ~n name unit 0.

let ratio name unit num den =
  Report.metric ~n:den name unit (div (float_of_int num) (float_of_int den))

let compute i =
  let sp = i.spans in
  let ops = named "op" sp in
  let n_ops = List.length ops in
  let writes = List.length (List.filter (fun (s : Span.span) -> s.tag = 1) ops) in
  let serve =
    List.filter
      (fun (s : Span.span) -> s.name = "server.request" || s.name = "mvstore.exec_sql")
      sp
  in
  let plan = named "plancache.plan" sp in
  let hits = List.filter (fun (s : Span.span) -> s.tag = 1) plan in
  let misses = List.filter (fun (s : Span.span) -> s.tag = 0) plan in
  let n_miss = List.length misses in
  let miss_plans = List.filter (fun (p : Replay.plan_info) -> not p.hit) i.plans in
  let exec = named "engine.exec" sp in
  let replays = named "replay" sp in
  let logs = named "durable.log" sp in
  let roots = List.filter (fun (s : Span.span) -> s.parent < 0) sp in
  let root_self =
    List.fold_left
      (fun acc ((s : Span.span), self_ms) -> if s.parent < 0 then acc +. self_ms else acc)
      0. (Span.self_times sp)
  in
  let srv_sum, srv_n = i.server_ms in
  let request_ms = sum_ms (named "server.request" sp) in
  let op_mean = div (sum_ms ops) (float_of_int n_ops) in
  [
    pct "sqlsyn.parse_us_p50" "us" ~p:0.5 ~scale:1e3 (durs (named "sqlsyn.parse" sp));
    pct "qgm.build_us_p50" "us" ~p:0.5 ~scale:1e3 (durs (named "qgm.build" sp));
    pct "plancache.hit_us_p50" "us" ~p:0.5 ~scale:1e3 (durs hits);
    pct "plancache.miss_ms_p50" "ms" ~p:0.5 ~scale:1. (durs misses);
    pct "plancache.miss_ms_p99" "ms" ~p:0.99 ~scale:1. (durs misses);
    ratio "plancache.hit_ratio" "ratio"
      (sum_delta "plan.cache_hits" serve)
      (sum_delta "plan.requests" serve);
    (let f = List.fold_left (fun a (p : Replay.plan_info) -> a + p.filtered) 0 miss_plans in
     let a = List.fold_left (fun a (p : Replay.plan_info) -> a + p.attempted) 0 miss_plans in
     ratio "plancache.filtered_ratio" "ratio" f (f + a));
    ratio "astmatch.match_calls_per_miss" "count" (sum_delta "match.calls" misses) n_miss;
    ratio "astmatch.accept_ratio" "ratio" (sum_delta "match.accepts" plan)
      (sum_delta "match.calls" plan);
    ratio "astmatch.rewrite_ratio" "ratio"
      (List.length (List.filter (fun (p : Replay.plan_info) -> p.rewrote) i.plans))
      (List.length i.plans);
    ratio "prove.attempts_per_miss" "count" (sum_delta "prove.attempts" misses) n_miss;
    ratio "prove.proved_ratio" "ratio" (sum_delta "prove.proved" plan)
      (sum_delta "prove.attempts" plan);
    ratio "lint.validate_runs_per_miss" "count"
      (List.fold_left (fun a (p : Replay.plan_info) -> a + p.validated) 0 miss_plans)
      n_miss;
    pct "engine.exec_ms_p50" "ms" ~p:0.5 ~scale:1. (durs exec);
    pct "engine.exec_ms_p99" "ms" ~p:0.99 ~scale:1. (durs exec);
    Report.metric ~n:(List.length exec) "engine.busy_share" "ratio"
      (div (sum_ms exec) (sum_ms replays));
    ratio "engine.rows_per_result_row" "ratio" (sum_delta "exec.rows" exec)
      (List.fold_left (fun a (s : Span.span) -> a + max 0 s.tag) 0 exec);
    ratio "engine.fallback_box_ratio" "ratio"
      (sum_delta "exec.fallback_boxes" exec)
      (sum_delta "exec.boxes" exec);
    (let h = sum_delta "exec.col_decode_hits" serve in
     ratio "engine.decode_hit_ratio" "ratio" h (h + sum_delta "exec.col_decodes" serve));
    ratio "engine.decoded_rows_per_op" "rows" (sum_delta "exec.col_decoded_rows" serve) n_ops;
    ratio "mvstore.refreshes_per_write" "count"
      (sum_delta "govern.maint.auto_refreshes" serve)
      writes;
    pct "mvstore.refresh_ms_p50" "ms" ~p:0.5 ~scale:1. i.refresh_ms;
    pct "durable.log_us_p50" "us" ~p:0.5 ~scale:1e3 (durs logs);
    pct "durable.log_us_p90" "us" ~p:0.9 ~scale:1e3 (durs logs);
    pct "durable.checkpoint_ms_p50" "ms" ~p:0.5 ~scale:1. i.checkpoint_ms;
    ratio "durable.fsyncs_per_write" "count" (sum_delta "durable.wal_fsyncs" logs) writes;
    Report.metric ~n:i.user_bytes "durable.bytes_per_user_byte" "ratio"
      (div i.durable_bytes (float_of_int i.user_bytes));
    Report.metric ~n:(min 1 i.replay_records) "durable.replay_records" "count"
      (float_of_int i.replay_records);
    Report.metric ~n:srv_n "server.process_ms_mean" "ms" (div srv_sum (float_of_int srv_n));
    Report.metric ~n:srv_n "server.process_share" "ratio" (div srv_sum request_ms);
    Report.metric ~n:n_ops "trace.overhead_share" "ratio"
      (div (op_mean -. i.untraced_op_ms) i.untraced_op_ms);
    Report.metric ~n:(List.length roots) "trace.unattributed_share" "ratio"
      (div root_self (sum_ms roots));
  ]
