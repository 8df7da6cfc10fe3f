(* Set-up shared by the workloads. *)

(* Set-ups per end-to-end run. *)
let times = 5

(* [median ~times ~teardown build] builds the servable state [times] times,
   tearing down all but the last, and returns the last state with the
   median set-up time in seconds. Each build starts from a collected heap
   and an empty column decode cache, so no build inherits another's. *)
let median ~times ~teardown build =
  let last = ref None and ts = ref [] in
  for _ = 1 to times do
    Option.iter teardown !last;
    last := None;
    Engine.Column.cache_clear ();
    Gc.compact ();
    let env, s = Clock.timed build in
    ts := s :: !ts;
    last := Some env
  done;
  (Option.get !last, Option.get (Stats.median !ts))

let define_summaries sn defs =
  List.iter
    (fun (name, sql) ->
      ignore
        (Mvstore.Session.exec_sql sn
           (Printf.sprintf "CREATE SUMMARY TABLE %s AS %s" name sql)))
    defs

let table_of = function
  | [ Mvstore.Session.Table r ] -> r
  | _ -> failwith "expected one result table"

(* Direct Store.refresh_full of every summary on a state, [rounds] times
   over: milliseconds per refresh. The result is discarded. *)
let refresh_samples ~rounds (snap : Mvstore.Shared.snapshot) =
  let names =
    List.map (fun e -> e.Mvstore.Store.e_name) (Mvstore.Store.entries snap.sn_store)
  in
  List.concat
    (List.init rounds (fun _ ->
         List.map
           (fun name ->
             let _, s =
               Clock.timed (fun () ->
                   Mvstore.Store.refresh_full snap.sn_store snap.sn_db name)
             in
             s *. 1e3)
           names))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let results_dir = Filename.concat "perfbench" "results"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* The first few failures go to standard error, with the statement. *)
let failures_shown = Atomic.make 0

let report_failure sql why =
  if Atomic.fetch_and_add failures_shown 1 < 5 then
    Printf.eprintf "perfbench: %s: %s\n%!" why sql
