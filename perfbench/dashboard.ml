(* dashboard: read-only analyst traffic over the socket — the paper's use
   case. Scale 10 with the three decision-support summary tables; the ten
   decision-support queries in seeded, shuffled rounds from two
   connections. *)

module W = Workload.Star_schema
module DS = Workload.Decision_support
module Se = Mvstore.Session
module J = Obs.Json

let scale = 10
let clients = 2
let params seed = { (W.scaled scale) with W.seed }
let queries = Array.of_list (List.map (fun q -> q.DS.dq_sql) DS.queries)

let data seed =
  let p = params seed in
  J.Obj
    [
      ("scale", J.Int scale);
      ("n_custs", J.Int p.W.n_custs);
      ("trans_per_acct_year", J.Int p.W.trans_per_acct_year);
      ("summary_tables", J.Int (List.length DS.summary_tables));
      ("distinct_queries", J.Int (Array.length queries));
      ("clients", J.Int clients);
      ("server_domains", J.Int Sock.domains);
    ]

type env = { shared : Mvstore.Shared.t; srv : Server.Listener.t }

let setup seed () =
  let sn = Se.of_tables (W.catalog ()) (W.generate (params seed)) in
  Setup.define_summaries sn DS.summary_tables;
  let shared = Se.share sn in
  { shared; srv = Sock.start ~mk_session:(fun () -> Se.attach shared) }

let teardown e = Server.Listener.stop e.srv

(* the rewrite:false answers every reply must be bag-equal to *)
let oracle shared =
  let o = Se.attach ~rewrite:false shared in
  Array.map (fun sql -> Setup.table_of (Se.exec_sql o sql)) queries

let run ~seed ~seconds ~trace =
  let env, setup_s =
    Setup.median ~times:(if trace then 1 else Setup.times) ~teardown (setup seed)
  in
  let expect = oracle env.shared in
  let n_clients = if trace then 1 else clients in
  let conns = Array.init n_clients (fun _ -> Sock.connect env.srv) in
  let failed = Atomic.make 0 and attempted = Atomic.make 0 in
  let check qi got =
    Atomic.incr attempted;
    if not (Sock.answers_equal expect.(qi) got) then begin
      Atomic.incr failed;
      Setup.report_failure queries.(qi) "no answer, or one that differs from rewrite:false"
    end
  in
  (* warm-up: one round per connection fills its session's plan cache *)
  Array.iter
    (fun c -> Array.iteri (fun qi sql -> check qi (Sock.table (Sock.request c sql))) queries)
    conns;
  let streams =
    Array.init n_clients (fun c -> Gen.rounds (Gen.rng ~seed (10 + c)) (Array.length queries))
  in
  Gc.compact ();
  let got = Array.make n_clients [] in
  let step c =
    let qi = streams.(c) () in
    let r, ms = Sock.timed_request conns.(c) queries.(qi) in
    got.(c) <- (qi, r) :: got.(c);
    { Drive.kind = Drive.Read; ms }
  in
  let check_all () =
    Array.iter (List.iter (fun (qi, r) -> check qi (Sock.table r))) got;
    Array.fill got 0 n_clients []
  in
  let outcome gated extra spans =
    Array.iter Server.Client.close conns;
    teardown env;
    {
      Report.attempted = Atomic.get attempted;
      failed = Atomic.get failed;
      gated;
      extra;
      spans;
    }
  in
  if not trace then begin
    let results, wall =
      Drive.closed_loop ~clients:n_clients ~seconds
        ~enough:(fun ~reads ~writes:_ -> reads >= Stats.needed ~p:0.99)
        step
    in
    check_all ();
    let lat = Drive.latencies Drive.Read results in
    let gated, extra =
      E2e.metrics ~setup_s ~ops:(Drive.count results) ~wall ~reads:lat
        ~failed:(Atomic.get failed) ~attempted:(Atomic.get attempted) ()
    in
    outcome gated extra []
  end
  else begin
    let refresh_ms =
      Setup.refresh_samples ~rounds:2 (Mvstore.Shared.snapshot env.shared)
    in
    let results, _ =
      Drive.closed_loop ~clients:1 ~seconds:(seconds /. 2.) ~enough:Drive.no_minimum step
    in
    check_all ();
    let untraced_op_ms =
      Option.value ~default:0. (Stats.mean (Drive.latencies Drive.Read results))
    in
    let tr = Span.create () in
    let rp = Replay.create tr in
    let s0, n0 = Sock.server_hist () in
    let op = ref 0 in
    let traced_step _ =
      let qi = streams.(0) () in
      incr op;
      let r, ms = Sock.traced_request tr ~op:!op ~write:false conns.(0) queries.(qi) in
      check qi (Sock.table r);
      (* the same read, split by layer, on the state it was served from *)
      let snap = Mvstore.Shared.snapshot env.shared in
      check qi
        (try Some (Replay.run rp ~op:!op snap.sn_db snap.sn_store queries.(qi))
         with _ -> None);
      { Drive.kind = Drive.Read; ms }
    in
    ignore
      (Drive.closed_loop ~clients:1 ~seconds
         ~enough:(fun ~reads ~writes:_ -> reads >= Stats.needed ~p:0.99)
         traced_step);
    let s1, n1 = Sock.server_hist () in
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
          server_ms = (s1 -. s0, n1 - n0);
        }
    in
    outcome gated [] spans
  end
