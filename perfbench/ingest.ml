(* ingest: writes beside reads over the socket. Scale 1 with the three
   decision-support summaries, auto-maintenance on, served from a WAL
   directory under the server defaults (fsync always, a checkpoint every
   64 commits). One operation in twenty is a multi-row INSERT INTO Trans;
   the reads are the ten decision-support queries. *)

module W = Workload.Star_schema
module DS = Workload.Decision_support
module Se = Mvstore.Session
module M = Durable.Manager
module J = Obs.Json

let scale = 1
let clients = 2
let write_every = 20
(* Rows per INSERT: an unverified choice, not taken from any recorded
   traffic. Between 1 and 64 rows an embedded durable insert and the refresh
   that follows it cost about the same (see the README), so this size
   mainly sets durable.bytes_per_user_byte. *)
let rows_per_write = 8
let params seed = { (W.scaled scale) with W.seed }
let queries = Dashboard.queries
let policy = M.default_config ""

let data seed =
  let p = params seed in
  J.Obj
    [
      ("scale", J.Int scale);
      ("n_custs", J.Int p.W.n_custs);
      ("trans_per_acct_year", J.Int p.W.trans_per_acct_year);
      ("summary_tables", J.Int (List.length DS.summary_tables));
      ("write_every", J.Int write_every);
      ("rows_per_write", J.Int rows_per_write);
      ("fsync", J.Str (Durable.Wal.fsync_policy_to_string policy.M.c_fsync));
      ("checkpoint_every", J.Int policy.M.c_checkpoint_every);
      ("auto_maint", J.Bool true);
      ("clients", J.Int clients);
      ("server_domains", J.Int Sock.domains);
    ]

(* Traced-run state read by the commit hook, which runs in a server
   domain: the tracer (when tracing), the operation and request span in
   flight, and the WAL bytes the logged commits wrote. *)
let tracing : Span.t option Atomic.t = Atomic.make None
let current = Atomic.make (0, -1)
let wal_bytes = Atomic.make 0

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* The commit hook the benchmark installs: Manager.log, timed when tracing. *)
let hook mgr dir commit =
  match Atomic.get tracing with
  | None -> M.log mgr commit
  | Some tr ->
      let wal = Filename.concat dir "wal.log" in
      let op, parent = Atomic.get current in
      let ck = M.checkpoint_lsn mgr and before = file_size wal in
      Span.with_span tr ~op ~parent "durable.log" (fun _ -> M.log mgr commit);
      let after = file_size wal in
      (* a checkpoint inside the call restarted the log *)
      let grew = if M.checkpoint_lsn mgr <> ck then after else after - before in
      ignore (Atomic.fetch_and_add wal_bytes grew)

type env = {
  dir : string;
  mgr : M.t;
  shared : Mvstore.Shared.t;
  srv : Server.Listener.t;
  trans_rows : int;
}

let cfg dir = { policy with M.c_dir = dir }

(* Load through the durable write path (DDL, COPY, CREATE SUMMARY TABLE),
   fold it into a checkpoint, then boot as a server would: recover the
   directory and serve it. *)
let setup seed () =
  let dir =
    Filename.concat Setup.results_dir (Printf.sprintf "ingest-wal-%d" (Unix.getpid ()))
  in
  Setup.rm_rf dir;
  Setup.ensure_dir dir;
  let tables = W.generate (params seed) in
  let mgr, shared, _ = M.recover (cfg dir) in
  let loader = Se.attach shared in
  M.bind mgr loader;
  ignore (Se.exec_sql loader W.ddl);
  List.iter
    (fun (name, rel) ->
      let csv = Filename.concat dir (name ^ ".csv") in
      Data.Csv.save_file rel csv;
      ignore (Se.exec_sql loader (Printf.sprintf "COPY %s FROM '%s' WITH HEADER" name csv));
      Sys.remove csv)
    tables;
  Setup.define_summaries loader DS.summary_tables;
  M.checkpoint mgr;
  M.close mgr;
  let mgr, shared, _ = M.recover (cfg dir) in
  let mk_session () =
    let s = Se.attach ~auto_maint:true shared in
    Se.set_on_commit s (Some (hook mgr dir));
    s
  in
  {
    dir;
    mgr;
    shared;
    srv = Sock.start ~mk_session;
    trans_rows = Data.Relation.cardinality (List.assoc "Trans" tables);
  }

let teardown e =
  Server.Listener.stop e.srv;
  M.close e.mgr;
  Setup.rm_rf e.dir

(* Direct Manager.checkpoint calls on the set-up state: milliseconds each,
   and the mean checkpoint file size in bytes. *)
let checkpoint_samples env n =
  let ms =
    List.init n (fun _ -> 1e3 *. snd (Clock.timed (fun () -> M.checkpoint env.mgr)))
  in
  let size =
    match Durable.Checkpoint.files env.dir with f :: _ -> file_size f | [] -> 0
  in
  (ms, float_of_int size)

let run ~seed ~seconds ~trace =
  Setup.ensure_dir Setup.results_dir;
  let env, setup_s =
    Setup.median ~times:(if trace then 1 else Setup.times) ~teardown (setup seed)
  in
  let n_clients = if trace then 1 else clients in
  let conns = Array.init n_clients (fun _ -> Sock.connect env.srv) in
  let failed = Atomic.make 0 and attempted = Atomic.make 0 in
  let expect ok = Atomic.incr attempted; if not ok then Atomic.incr failed in
  Array.iter
    (fun c -> Array.iter (fun sql -> expect (Sock.table (Sock.request c sql) <> None)) queries)
    conns;
  Gc.compact ();
  let d = Gen.dims_of (params seed) in
  let mixes = Array.init n_clients (fun c -> Gen.mix (Gen.rng ~seed (30 + c)) ~every:write_every) in
  let reads =
    Array.init n_clients (fun c -> Gen.rounds (Gen.rng ~seed (40 + c)) (Array.length queries))
  in
  let rows = Array.init n_clients (fun c -> Gen.rng ~seed (50 + c)) in
  (* fresh tids: each connection counts up from its own range *)
  let next_tid = Array.init n_clients (fun c -> env.trans_rows + 1 + (c * 10_000_000)) in
  let acked = Array.make n_clients [] in
  let user_bytes = ref 0 in
  (* one operation of connection [c], sent with [send]; returns the sample
     and, for a read, its SQL and reply *)
  let perform c send =
    if mixes.(c) () then begin
      let tids = List.init rows_per_write (fun i -> next_tid.(c) + i) in
      next_tid.(c) <- next_tid.(c) + rows_per_write;
      let sql, bytes = Gen.insert rows.(c) d ~tids in
      let r, ms = send ~write:true sql in
      expect (Result.is_ok r);
      if Result.is_ok r then begin
        acked.(c) <- tids :: acked.(c);
        user_bytes := !user_bytes + bytes
      end;
      ({ Drive.kind = Drive.Write; ms }, None)
    end
    else begin
      let sql = queries.(reads.(c) ()) in
      let r, ms = send ~write:false sql in
      let got = Sock.table r in
      expect (got <> None);
      ({ Drive.kind = Drive.Read; ms }, Option.map (fun rel -> (sql, rel)) got)
    end
  in
  let plain c = fst (perform c (fun ~write:_ sql -> Sock.timed_request conns.(c) sql)) in
  let measured =
    if not trace then
      `Untraced
        (Drive.closed_loop ~clients:n_clients ~seconds
           ~enough:(fun ~reads ~writes:_ -> reads >= Stats.needed ~p:0.99)
           plain)
    else begin
      let snap = Mvstore.Shared.snapshot env.shared in
      let refresh_ms = Setup.refresh_samples ~rounds:2 snap in
      let checkpoint_ms, ckpt_size = checkpoint_samples env 5 in
      let half = seconds /. 2. in
      let untraced, _ =
        Drive.closed_loop ~clients:1 ~seconds:half ~enough:Drive.no_minimum plain
      in
      let untraced_op_ms =
        Option.value ~default:0.
          (Stats.mean (Drive.latencies Drive.Read untraced @ Drive.latencies Drive.Write untraced))
      in
      let tr = Span.create () in
      let rp = Replay.create tr in
      let op = ref 0 in
      let send ~write sql =
        Sock.traced_request tr ~op:!op ~write
          ~on_request:(fun id -> Atomic.set current (!op, id))
          conns.(0) sql
      in
      let traced _ =
        incr op;
        let sample, read = perform 0 send in
        (* the same read, split by layer, on the state it was served from *)
        Option.iter
          (fun (sql, served) ->
            let snap = Mvstore.Shared.snapshot env.shared in
            expect
              (Sock.answers_equal served
                 (try Some (Replay.run rp ~op:!op snap.sn_db snap.sn_store sql)
                  with _ -> None)))
          read;
        sample
      in
      let s0, n0 = Sock.server_hist () in
      let bytes0 = !user_bytes in
      Atomic.set wal_bytes 0;
      Atomic.set tracing (Some tr);
      let _ =
        Drive.closed_loop ~clients:1 ~seconds
          ~enough:(fun ~reads:_ ~writes -> writes >= Stats.needed ~p:0.9)
          traced
      in
      Atomic.set tracing None;
      let s1, n1 = Sock.server_hist () in
      let spans = Span.spans tr in
      let logs = List.length (List.filter (fun (s : Span.span) -> s.name = "durable.log") spans) in
      let inputs recovered =
        {
          Layers.spans;
          plans = rp.Replay.plans;
          untraced_op_ms;
          refresh_ms;
          checkpoint_ms;
          replay_records = recovered;
          durable_bytes =
            float_of_int (Atomic.get wal_bytes)
            +. (float_of_int logs *. ckpt_size /. float_of_int policy.M.c_checkpoint_every);
          user_bytes = !user_bytes - bytes0;
          server_ms = (s1 -. s0, n1 - n0);
        }
      in
      `Traced inputs
    end
  in
  (* quiet server: rewritten answers must equal rewrite:false answers *)
  Array.iter
    (fun sql ->
      let base = Sock.table (Sock.request ~rewrite:false conns.(0) sql) in
      let routed = Sock.table (Sock.request conns.(0) sql) in
      expect (match base with Some b -> Sock.answers_equal b routed | None -> false))
    queries;
  Array.iter Server.Client.close conns;
  Server.Listener.stop env.srv;
  M.close env.mgr;
  (* recovery: every acknowledged row must be back *)
  let (mgr, shared, report), recovery_s = Clock.timed (fun () -> M.recover (cfg env.dir)) in
  let trans = Engine.Db.get_exn (Mvstore.Shared.snapshot shared).sn_db "Trans" in
  let tid_col = Data.Relation.column_index trans "tid" in
  let present = Hashtbl.create (Data.Relation.cardinality trans) in
  List.iter
    (fun row ->
      match row.(tid_col) with Data.Value.Int t -> Hashtbl.replace present t () | _ -> ())
    (Data.Relation.rows trans);
  Array.iter
    (List.iter (fun tids -> expect (List.for_all (Hashtbl.mem present) tids)))
    acked;
  M.close mgr;
  Setup.rm_rf env.dir;
  let gated, extra, spans =
    match measured with
    | `Traced inputs ->
        let i = inputs report.M.r_replayed in
        (Layers.compute i, [], i.Layers.spans)
    | `Untraced (results, wall) ->
        let gated, extra =
          E2e.metrics ~setup_s ~ops:(Drive.count results) ~wall
            ~reads:(Drive.latencies Drive.Read results)
            ~writes:(Drive.latencies Drive.Write results)
            ~failed:(Atomic.get failed) ~attempted:(Atomic.get attempted) ~recovery_s ()
        in
        (gated, extra, [])
  in
  {
    Report.attempted = Atomic.get attempted;
    failed = Atomic.get failed;
    gated;
    extra;
    spans;
  }
