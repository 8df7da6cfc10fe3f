(* The socket side of the dashboard and ingest workloads: an in-process
   Server.Listener on an ephemeral loopback port, and client requests
   timed as the client sees them. *)

module L = Server.Listener

let domains = 2

let start ~mk_session =
  L.start
    (L.config ~addr:(L.Tcp ("127.0.0.1", 0)) ~domains ~queue_depth:8 ~backlog:16 ())
    ~mk_session

let connect srv =
  Server.Client.connect_addr ~retries:3 (L.Tcp ("127.0.0.1", Option.get (L.port srv)))

(* One request; transport failures and typed errors both come back as
   [Error]. *)
let request ?rewrite c sql =
  match Server.Client.request ?rewrite c sql with
  | Ok r -> Ok r
  | Error e -> Error (e.Server.Wire.we_code ^ ": " ^ e.Server.Wire.we_msg)
  | exception e -> Error (Printexc.to_string e)

let table = function
  | Ok { Server.Wire.rp_results = [ Server.Wire.Table (cols, rows) ]; _ } ->
      Some (Data.Relation.create cols rows)
  | _ -> None

let timed_request ?rewrite c sql =
  let t0 = Clock.now_ns () in
  let r = request ?rewrite c sql in
  (r, Clock.ms_between t0 (Clock.now_ns ()))

(* The traced form of one operation: an [op] root (tag 1 for writes) whose
   child is the client request. [on_request] sees the request span id
   while the request is in flight (the durability hook parents its spans
   under it). *)
let traced_request tr ~op ~write ?(on_request = fun _ -> ()) c sql =
  let t0 = Clock.now_ns () in
  let r =
    Span.with_span tr ~op ~parent:(-1) "op"
      ~tag:(fun _ -> if write then 1 else 0)
      (fun root ->
        Span.with_span tr ~op ~parent:root "server.request" (fun id ->
            on_request id;
            request c sql))
  in
  (r, Clock.ms_between t0 (Clock.now_ns ()))

let answers_equal expected got =
  match got with
  | Some rel -> Data.Relation.bag_equal_approx expected rel
  | None -> false

let server_hist () =
  let h = Obs.Metrics.histogram "server.request_ms" in
  (Obs.Metrics.hist_sum h, Obs.Metrics.hist_count h)
