(* Command-line pieces shared by astql and astql-server: the flags both
   take, and the one place that turns the environment plus those flags into
   the session's Knobs.t.

   A malformed setting — in a flag or in an ASTQL_* variable — ends the
   process with exit code 2 and a message naming it, before anything is
   served or run: [exit_code] maps cmdliner's usage-error code to 2, and
   [knobs] exits 2 itself for what Knobs.of_env rejects. *)

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      Stdlib.exit 2)
    fmt

let exit_code c = if c = Cmd.Exit.cli_error then 2 else c

let env_knobs () =
  match Govern.Knobs.of_env Sys.getenv_opt with
  | Ok k -> k
  | Error m -> die "%s" m

(* The knob flags are read as strings and parsed by Knobs.set, the parser
   of the variable each one overrides, so flag and variable accept the
   same values. *)
let knob_flag var long ~docv ~doc =
  let arg = Arg.(value & opt (some string) None & info [ long ] ~docv ~doc) in
  Term.(const (fun v -> (var, long, v)) $ arg)

let deadline_flag =
  knob_flag "ASTQL_DEADLINE_MS" "deadline-ms" ~docv:"MS"
    ~doc:
      "Per-statement wall-clock deadline in milliseconds. When planning \
       overruns it, the best-so-far (possibly unrewritten) plan is used and \
       EXPLAIN REWRITE reports $(b,degraded); when rewritten execution \
       overruns it, the base plan is re-run unbudgeted. Defaults to \
       $(b,ASTQL_DEADLINE_MS) from the environment, else unlimited."

let match_budget_flag =
  knob_flag "ASTQL_MATCH_BUDGET" "match-budget" ~docv:"N"
    ~doc:
      "Per-statement cap on match-function invocations during rewrite \
       planning. Defaults to $(b,ASTQL_MATCH_BUDGET) from the environment, \
       else unlimited."

let validate_flag =
  knob_flag "ASTQL_VALIDATE" "validate" ~docv:"LEVEL"
    ~doc:
      "Static IR validation level: $(b,0)/$(b,off) disables it, \
       $(b,1)/$(b,final-plan) checks the final rewritten plan before it is \
       cached or executed (the default), $(b,2)/$(b,every-candidate) also \
       checks builder output and every compensation the rewriter builds \
       (an ill-formed candidate is rejected and its summary table \
       quarantined). Defaults to $(b,ASTQL_VALIDATE) from the environment."

let engine_flag =
  knob_flag "ASTQL_EXEC" "exec" ~docv:"ENGINE"
    ~doc:
      "Executor engine: $(b,vector) (batch-at-a-time over typed column \
       vectors; the default) or $(b,reference) (the naive differential-testing \
       oracle — quadratic, testing only). Both produce bag-equal results. \
       Defaults to $(b,ASTQL_EXEC) from the environment."

let fault_arg =
  let doc =
    "Arm deterministic fault-injection points (testing): comma-separated \
     $(i,point)[:$(i,N)] where point is navigate, match, compensate, \
     translate, corrupt, refresh, delay or accept — the Nth hit of that \
     point fails (default 1; $(b,delay) instead stalls every hit from the \
     Nth on, for exercising deadlines; $(b,accept) crashes a server \
     connection handler, for exercising containment)."
  in
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)

let crash_arg =
  let doc =
    "Arm crash-injection points (testing): comma-separated \
     $(i,point)[:$(i,N)] over $(b,wal_append), $(b,wal_fsync), \
     $(b,checkpoint_write), $(b,checkpoint_rename) — the Nth hit SIGKILLs \
     the process at that exact durability step, exactly like kill -9."
  in
  let env = Cmd.Env.info "ASTQL_CRASH" ~doc:"Default crash spec." in
  Arg.(value & opt (some string) None & info [ "crash" ] ~env ~docv:"SPEC" ~doc)

let arm what arm_spec = function
  | None -> ()
  | Some spec -> (
      match arm_spec spec with
      | Ok () -> ()
      | Error m -> die "bad --%s spec: %s" what m)

(* The knobs in force: the environment, overridden by the knob flags. Then
   the fault and crash specs are armed and the wire-stall knob applied —
   all before the caller serves or runs anything. *)
let knobs =
  let build flags fault crash =
    let k =
      List.fold_left
        (fun k (var, long, v) ->
          match v with
          | None -> k
          | Some s -> (
              match Govern.Knobs.set k var s with
              | Ok k -> k
              | Error m -> die "bad --%s %S: %s" long s m))
        (env_knobs ()) flags
    in
    arm "fault" Guard.Fault.arm_spec fault;
    arm "crash" Guard.Fault.arm_crash_spec crash;
    Option.iter Guard.Fault.set_wire_stall_ms k.Govern.Knobs.wire_stall_ms;
    k
  in
  Term.(
    const (fun e v d m -> build [ e; v; d; m ])
    $ engine_flag $ validate_flag $ deadline_flag $ match_budget_flag
    $ fault_arg $ crash_arg)

let no_rewrite_flag =
  let doc = "Disable transparent summary-table rewriting." in
  Arg.(value & flag & info [ "no-rewrite" ] ~doc)

let auto_maint_flag =
  let doc =
    "Self-healing maintenance: auto-refresh summary tables that DML left \
     stale, at statement boundaries under the session budget, with \
     exponential backoff and quarantine after repeated refresh failures."
  in
  Arg.(value & flag & info [ "auto-maint" ] ~doc)

let durability_arg =
  let doc =
    "Durability directory (WAL + checkpoints). On boot the newest valid \
     checkpoint is loaded and the WAL suffix replayed; afterwards every \
     committed write statement is logged before it is published, and a \
     final checkpoint is taken on exit. Unset = in-memory only."
  in
  let env =
    Cmd.Env.info "ASTQL_DURABILITY" ~doc:"Default durability directory."
  in
  Arg.(
    value & opt (some string) None & info [ "durability" ] ~env ~docv:"DIR" ~doc)

let fsync_conv =
  let parse s =
    match Durable.Wal.fsync_policy_of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  let print fmt p =
    Format.pp_print_string fmt (Durable.Wal.fsync_policy_to_string p)
  in
  Arg.conv (parse, print)

let fsync_arg =
  let doc =
    "WAL fsync policy: $(b,always) (every commit), $(b,interval:N) (every \
     N commits), or $(b,off) (the OS decides)."
  in
  let env = Cmd.Env.info "ASTQL_FSYNC" ~doc:"Default WAL fsync policy." in
  Arg.(
    value
    & opt fsync_conv Durable.Wal.Always
    & info [ "fsync" ] ~env ~docv:"POLICY" ~doc)

let checkpoint_every_arg =
  let doc =
    "Fold the WAL into a fresh checkpoint every $(docv) commits (0 = only \
     at exit)."
  in
  let env =
    Cmd.Env.info "ASTQL_CHECKPOINT_EVERY" ~doc:"Default checkpoint interval."
  in
  Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~env ~docv:"N" ~doc)

(* The durability configuration, when a directory is given. *)
let durable =
  Term.(
    const (fun dir c_fsync c_checkpoint_every ->
        Option.map
          (fun c_dir -> { Durable.Manager.c_dir; c_fsync; c_checkpoint_every })
          dir)
    $ durability_arg $ fsync_arg $ checkpoint_every_arg)

let scale_arg =
  let doc = "Demo data scale factor." in
  Arg.(value & opt int 1 & info [ "scale" ] ~doc)

let files_arg = Arg.(value & pos_all non_dir_file [] & info [] ~docv:"FILE")

let metrics_out_arg =
  let doc =
    "Write the metrics registry (planner, matcher, executor counters and \
     latency histograms) to $(docv) as JSON on exit. The schema is the one \
     embedded in the bench harness's BENCH_results.json."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let dump_metrics = function
  | None -> ()
  | Some path -> (
      try Obs.Metrics.dump path
      with Sys_error m -> Printf.eprintf "cannot write metrics: %s\n" m)

(* With durability on, the recovered shared state is canonical: seed data
   only applies to a database recovered empty. *)
let state_empty shared =
  let snap = Mvstore.Shared.snapshot shared in
  Catalog.tables (Engine.Db.catalog snap.Mvstore.Shared.sn_db) = []
