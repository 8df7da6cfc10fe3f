(* astql-server — multi-core query serving over the line-JSON protocol.

   One process owns the database; clients connect over a Unix or TCP
   socket and speak one JSON request per line (see Server.Wire). Each
   connection gets its own session bound to the shared snapshot state, a
   bounded pool of OCaml 5 domains serves connections in parallel, and
   overload is shed with a typed error instead of an unbounded queue.

   The database starts empty unless preloaded: positional FILE arguments
   are SQL scripts executed before serving begins; --demo loads the
   paper's star schema. There is no persistence — this is a serving
   harness for the rewriter, not a storage engine. *)

let limits_of ~deadline_ms ~match_budget =
  let module B = Govern.Budget in
  let l = B.default_limits () in
  let l =
    match deadline_ms with
    | None -> l
    | Some ms -> { l with B.bl_deadline_ms = Some ms }
  in
  match match_budget with
  | None -> l
  | Some n -> { l with B.bl_matches = Some n }

let arm_faults = function
  | None -> ()
  | Some spec -> (
      match Guard.Fault.arm_spec spec with
      | Ok () -> ()
      | Error m ->
          Printf.eprintf "bad --fault spec: %s\n" m;
          Stdlib.exit 2)

let arm_crashes = function
  | None -> ()
  | Some spec -> (
      match Guard.Fault.arm_crash_spec spec with
      | Ok () -> ()
      | Error m ->
          Printf.eprintf "bad --crash spec: %s\n" m;
          Stdlib.exit 2)

let set_validate = function None -> () | Some l -> Lint.Level.set l

let preload session file =
  let text = In_channel.with_open_text file In_channel.input_all in
  match Mvstore.Session.exec_sql session text with
  | _ -> ()
  | exception Mvstore.Session.Session_error m ->
      Printf.eprintf "%s: %s\n" file m;
      Stdlib.exit 1

let seed_session ~rewrite ~budget ~auto_maint ~demo ~scale files =
  let session =
    if demo then begin
      let params = Workload.Star_schema.scaled scale in
      let tables = Workload.Star_schema.generate params in
      let session =
        Mvstore.Session.of_tables ~rewrite ~budget ~auto_maint
          (Workload.Star_schema.catalog ()) tables
      in
      Printf.eprintf "loaded star schema (%d transactions)\n%!"
        (Data.Relation.cardinality (List.assoc "Trans" tables));
      session
    end
    else Mvstore.Session.create ~rewrite ~budget ~auto_maint ()
  in
  List.iter (preload session) files;
  session

(* With durability on, the recovered shared state is canonical. Seed data
   (demo/FILEs) only applies to a database recovered empty — the WAL and
   checkpoints already hold everything else — and is folded into a
   checkpoint immediately so it survives a crash before the first commit. *)
let state_empty shared =
  let snap = Mvstore.Shared.snapshot shared in
  Catalog.tables (Engine.Db.catalog snap.Mvstore.Shared.sn_db) = []

let m_ckpt_skipped = Obs.Metrics.counter "durable.checkpoint_skipped"

let serve addr domains queue_depth backlog no_rewrite auto_maint deadline_ms
    match_budget request_deadline_ms idle_timeout_ms io_timeout_ms
    degrade_watermark retry_after_ms validate exec_engine fault crash
    metrics_out demo scale durability fsync checkpoint_every drain_ms files =
  arm_faults fault;
  arm_crashes crash;
  set_validate validate;
  (* chaos-harness knob: how long an armed wire_stall_read fault stalls *)
  (match Sys.getenv_opt "ASTQL_WIRE_STALL_MS" with
  | Some s -> (
      match float_of_string_opt s with
      | Some ms when ms >= 0. -> Guard.Fault.set_wire_stall_ms ms
      | _ -> ())
  | None -> ());
  (match exec_engine with
  | None -> ()
  | Some e -> Engine.Exec.set_engine e);
  let rewrite = not no_rewrite in
  let budget = limits_of ~deadline_ms ~match_budget in
  let cf_addr =
    match Server.Listener.parse_addr addr with
    | Ok a -> a
    | Error m ->
        Printf.eprintf "bad --addr %S: %s\n" addr m;
        Stdlib.exit 2
  in
  let durable =
    match durability with
    | None -> None
    | Some dir ->
        let cfg =
          {
            Durable.Manager.c_dir = dir;
            c_fsync = fsync;
            c_checkpoint_every = checkpoint_every;
          }
        in
        let mgr, shared, report = Durable.Manager.recover cfg in
        Printf.eprintf "astql-server: durability on — %s\n%!"
          (Durable.Manager.describe_report report);
        Some (mgr, shared, report)
  in
  let shared =
    match durable with
    | None ->
        Mvstore.Session.share
          (seed_session ~rewrite ~budget ~auto_maint ~demo ~scale files)
    | Some (mgr, shared, _) ->
        if demo || files <> [] then
          if state_empty shared then begin
            let seed =
              seed_session ~rewrite ~budget ~auto_maint ~demo ~scale files
            in
            Mvstore.Shared.with_write shared (fun _ ->
                ( {
                    Mvstore.Shared.sn_db = Mvstore.Session.db seed;
                    sn_store = Mvstore.Session.store seed;
                  },
                  () ));
            Durable.Manager.checkpoint mgr
          end
          else
            Printf.eprintf
              "astql-server: recovered state is non-empty; ignoring seed \
               data (--demo/FILE)\n\
               %!";
        shared
  in
  let quarantined =
    match durable with Some (_, _, r) -> r.Durable.Manager.r_quarantined | None -> []
  in
  let mk_session () =
    let s = Mvstore.Session.attach ~rewrite ~budget ~auto_maint shared in
    (match durable with
    | Some (mgr, _, _) -> Durable.Manager.bind mgr s
    | None -> ());
    (* summaries the recovery ladder emptied: enqueue for self-healing
       rebuild (idempotent — the first session to refresh wins, the rest
       observe freshness and drop the task) *)
    List.iter (Mvstore.Maint.enqueue (Mvstore.Session.maint s)) quarantined;
    s
  in
  (* the first overload rung defaults to half the queue: plenty of slack
     absorbed at full quality, degraded-but-correct service beyond *)
  let degrade_watermark =
    match degrade_watermark with
    | Some w -> w
    | None -> max 1 (queue_depth / 2)
  in
  let srv =
    match
      Server.Listener.start
        (Server.Listener.config ~addr:cf_addr ~domains
           ~queue_depth ~backlog ~degrade_watermark ~retry_after_ms
           ~idle_timeout_ms ~io_timeout_ms
           ~request_deadline_ms ())
        ~mk_session
    with
    | srv -> srv
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot listen on %s: %s\n" addr
          (Unix.error_message e);
        Stdlib.exit 1
  in
  let bound =
    match (cf_addr, Server.Listener.port srv) with
    | Server.Listener.Tcp (h, _), Some p -> Printf.sprintf "%s:%d" h p
    | _ -> Server.Listener.addr_to_string cf_addr
  in
  Printf.eprintf
    "astql-server listening on %s (%d domain%s, queue depth %d)\n%!" bound
    domains
    (if domains = 1 then "" else "s")
    queue_depth;
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_requested) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Printf.eprintf "astql-server: shutting down (draining up to %d ms)\n%!"
    drain_ms;
  let t_stop = Obs.Metrics.now_ms () in
  Server.Listener.stop ~drain_ms srv;
  let drain_elapsed_ms = Obs.Metrics.now_ms () -. t_stop in
  (match durable with
  | None -> ()
  | Some (mgr, _, _) ->
      (* every request is done or disconnected: fold the log into a final
         checkpoint so the next boot skips replay entirely — unless the
         drain already consumed the shutdown window. A supervisor that
         sent SIGTERM follows with SIGKILL; a checkpoint cut down by it
         would be discarded at recovery anyway, while the WAL already
         holds every acknowledged write. Skipping is safe (recovery
         replays), so spend no time we were not given. *)
      if drain_ms > 0 && drain_elapsed_ms >= float_of_int drain_ms then begin
        Obs.Metrics.incr m_ckpt_skipped;
        Printf.eprintf
          "astql-server: durable.checkpoint_skipped — drain consumed the \
           shutdown window (%.0f of %d ms); WAL replay covers the rest\n\
           %!"
          drain_elapsed_ms drain_ms
      end
      else begin
        Durable.Manager.checkpoint mgr;
        Printf.eprintf "astql-server: final checkpoint at lsn %d\n%!"
          (Durable.Manager.checkpoint_lsn mgr)
      end;
      Durable.Manager.close mgr);
  match metrics_out with
  | None -> ()
  | Some path -> (
      try Obs.Metrics.dump path
      with Sys_error m -> Printf.eprintf "cannot write metrics: %s\n" m)

open Cmdliner

let addr_arg =
  let doc =
    "Listen address: $(i,HOST:PORT) for TCP (port 0 picks an ephemeral \
     port, printed on stderr) or a filesystem path for a Unix-domain \
     socket."
  in
  let env = Cmd.Env.info "ASTQL_ADDR" ~doc:"Default listen address." in
  Arg.(
    value & opt string "127.0.0.1:7433" & info [ "a"; "addr" ] ~env ~docv:"ADDR" ~doc)

let domains_arg =
  let doc = "Worker domains serving connections in parallel." in
  let env = Cmd.Env.info "ASTQL_DOMAINS" ~doc:"Default worker domain count." in
  Arg.(value & opt int 4 & info [ "domains" ] ~env ~docv:"N" ~doc)

let queue_depth_arg =
  let doc =
    "Accepted connections waiting for a worker beyond this are refused \
     with a typed $(b,overloaded) error — backpressure is explicit, the \
     queue never grows without bound."
  in
  let env = Cmd.Env.info "ASTQL_QUEUE_DEPTH" ~doc:"Default waiting-queue depth." in
  Arg.(value & opt int 64 & info [ "queue-depth" ] ~env ~docv:"N" ~doc)

let backlog_arg =
  let doc = "listen(2) backlog for connection bursts." in
  Arg.(value & opt int 64 & info [ "backlog" ] ~docv:"N" ~doc)

let no_rewrite_flag =
  let doc = "Disable transparent summary-table rewriting." in
  Arg.(value & flag & info [ "no-rewrite" ] ~doc)

let auto_maint_flag =
  let doc =
    "Self-healing maintenance: auto-refresh summary tables that DML left \
     stale, at statement boundaries."
  in
  Arg.(value & flag & info [ "auto-maint" ] ~doc)

let deadline_arg =
  let doc = "Per-statement wall-clock deadline in milliseconds." in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let match_budget_arg =
  let doc = "Per-statement cap on match-function invocations." in
  Arg.(value & opt (some int) None & info [ "match-budget" ] ~docv:"N" ~doc)

let request_deadline_arg =
  let doc =
    "Default per-request deadline in milliseconds (a request's own \
     $(b,opts.deadline_ms) takes precedence; either can only tighten \
     $(b,--deadline-ms)). On expiry the request degrades to the best plan \
     found — annotated in the reply — instead of failing. 0 disables."
  in
  let env =
    Cmd.Env.info "ASTQL_REQUEST_DEADLINE_MS" ~doc:"Default request deadline."
  in
  Arg.(
    value & opt float 0. & info [ "request-deadline-ms" ] ~env ~docv:"MS" ~doc)

let idle_timeout_arg =
  let doc =
    "Reap connections idle between requests after $(docv) milliseconds, \
     freeing their worker (quiet close, counted in \
     $(b,server.idle_reaped)). 0 disables."
  in
  let env = Cmd.Env.info "ASTQL_IDLE_TIMEOUT_MS" ~doc:"Default idle timeout." in
  Arg.(value & opt float 0. & info [ "idle-timeout-ms" ] ~env ~docv:"MS" ~doc)

let io_timeout_arg =
  let doc =
    "Bound mid-frame reads and response writes to $(docv) milliseconds: a \
     peer that stalls inside a request line or stops draining its socket \
     costs one connection, never a worker. 0 disables."
  in
  let env = Cmd.Env.info "ASTQL_IO_TIMEOUT_MS" ~doc:"Default io timeout." in
  Arg.(value & opt float 0. & info [ "io-timeout-ms" ] ~env ~docv:"MS" ~doc)

let degrade_watermark_arg =
  let doc =
    "First overload rung: with at least $(docv) jobs waiting, requests \
     are served from base plans (the rewrite search is skipped) and \
     replies carry a $(b,degraded) annotation. Defaults to half the queue \
     depth; -1 disables the rung."
  in
  let env =
    Cmd.Env.info "ASTQL_DEGRADE_WATERMARK" ~doc:"Default degrade watermark."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "degrade-watermark" ] ~env ~docv:"N" ~doc)

let retry_after_arg =
  let doc =
    "Backoff hint (milliseconds) carried by $(b,overloaded) rejections; \
     well-behaved clients wait at least this long before reconnecting."
  in
  let env = Cmd.Env.info "ASTQL_RETRY_AFTER_MS" ~doc:"Default backoff hint." in
  Arg.(value & opt int 50 & info [ "retry-after-ms" ] ~env ~docv:"MS" ~doc)

let validate_conv =
  let parse s =
    match Lint.Level.of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg "expected 0|off, 1|final-plan, or 2|every-candidate")
  in
  let print fmt l = Format.pp_print_string fmt (Lint.Level.to_string l) in
  Arg.conv (parse, print)

let validate_arg =
  let doc = "Static IR validation level (see astql --help)." in
  Arg.(
    value
    & opt (some validate_conv) None
    & info [ "validate" ] ~docv:"LEVEL" ~doc)

let engine_conv =
  let parse s =
    match Engine.Exec.engine_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg "expected vector or reference")
  in
  let print fmt e =
    Format.pp_print_string fmt (Engine.Exec.engine_to_string e)
  in
  Arg.conv (parse, print)

let engine_arg =
  let doc =
    "Executor engine: $(b,vector) or $(b,reference) (see astql --help). \
     Defaults to $(b,ASTQL_EXEC) from the environment."
  in
  Arg.(value & opt (some engine_conv) None & info [ "exec" ] ~docv:"ENGINE" ~doc)

let fault_arg =
  let doc =
    "Arm deterministic fault-injection points (testing): comma-separated \
     $(i,point)[:$(i,N)] — point names include $(b,accept), which crashes \
     the Nth accepted connection's handler to exercise containment."
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

let durability_arg =
  let doc =
    "Durability directory (WAL + checkpoints). On boot the newest valid \
     checkpoint is loaded and the WAL suffix replayed; afterwards every \
     committed write statement is logged before it is published. Unset = \
     in-memory only."
  in
  let env = Cmd.Env.info "ASTQL_DURABILITY" ~doc:"Default durability directory." in
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
     at shutdown)."
  in
  let env =
    Cmd.Env.info "ASTQL_CHECKPOINT_EVERY" ~doc:"Default checkpoint interval."
  in
  Arg.(
    value & opt int 64 & info [ "checkpoint-every" ] ~env ~docv:"N" ~doc)

let drain_ms_arg =
  let doc =
    "On SIGTERM/SIGINT, give requests already executing up to $(docv) \
     milliseconds to finish and flush before forcing disconnection."
  in
  let env = Cmd.Env.info "ASTQL_DRAIN_MS" ~doc:"Default drain bound." in
  Arg.(value & opt int 2000 & info [ "drain-ms" ] ~env ~docv:"MS" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics registry (including the $(b,server.*) serving \
     metrics) to $(docv) as JSON on shutdown."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let demo_flag =
  let doc = "Preload the paper's star schema and generated data." in
  Arg.(value & flag & info [ "demo" ] ~doc)

let scale_arg =
  let doc = "Demo data scale factor." in
  Arg.(value & opt int 1 & info [ "scale" ] ~doc)

let files_arg =
  Arg.(value & pos_all non_dir_file [] & info [] ~docv:"FILE")

let () =
  let doc = "serve astql over a socket with a pool of domains" in
  let info = Cmd.info "astql-server" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const serve $ addr_arg $ domains_arg $ queue_depth_arg
            $ backlog_arg $ no_rewrite_flag $ auto_maint_flag $ deadline_arg
            $ match_budget_arg $ request_deadline_arg $ idle_timeout_arg
            $ io_timeout_arg $ degrade_watermark_arg $ retry_after_arg
            $ validate_arg $ engine_arg $ fault_arg
            $ crash_arg $ metrics_out_arg $ demo_flag $ scale_arg
            $ durability_arg $ fsync_arg $ checkpoint_every_arg $ drain_ms_arg
            $ files_arg)))
