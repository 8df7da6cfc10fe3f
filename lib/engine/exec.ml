(* Engine dispatcher.

   Two engines implement the QGM operators:
   - [Vector] (default): batch-at-a-time over typed columns ({!Vexec}),
     which runs every box body;
   - [Reference]: the naive oracle's operators ({!Reference}), runnable
     under the same memoized recursion so the full test suite can exercise
     it via [ASTQL_EXEC=reference].

   The recursion skeleton ([run_box_memo]) is engine-agnostic: one memo
   slot per box, deadline checks and row metering at operator boundaries,
   per-operator metrics. One engine runs a whole plan. *)

exception Exec_error of string

module V = Data.Value
module R = Data.Relation
module B = Qgm.Box
module G = Qgm.Graph
module C = Column

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

type engine = Vector | Reference

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "vector" | "vectorized" -> Some Vector
  | "reference" | "ref" -> Some Reference
  | _ -> None

let engine_to_string = function Vector -> "vector" | Reference -> "reference"

let default_engine =
  (* unknown values fall back to the default rather than failing startup:
     the knob is a perf switch, not a correctness switch *)
  match Option.bind (Sys.getenv_opt "ASTQL_EXEC") engine_of_string with
  | Some e -> e
  | None -> Vector

let current_engine = Atomic.make default_engine
let engine () = Atomic.get current_engine
let set_engine e = Atomic.set current_engine e

let with_engine e f =
  let saved = Atomic.get current_engine in
  Atomic.set current_engine e;
  Fun.protect ~finally:(fun () -> Atomic.set current_engine saved) f

(* ------------------------------------------------------------------ *)
(* Memoized recursion over boxes                                       *)
(* ------------------------------------------------------------------ *)

(* A memo slot holds a box's result in the representation its engine
   produced: a relation (Reference), a column batch (Vector), or a select
   handed to its group unprojected. *)
type slot = Rel of R.t | Bat of C.batch | Fil of Vexec.filtered

(* Vectorized operators report internal invariant violations through their
   own exception; surface them as executor errors. Reference operators
   likewise, so [ASTQL_EXEC=reference] behaves as a drop-in engine. *)
let vex f = try f () with Vexec.Error m -> raise (Exec_error m)
let refx f = try f () with Reference.Reference_error m -> raise (Exec_error m)

let slot_batch = function
  | Bat b -> b
  | Fil f -> vex (fun () -> Vexec.materialize f)
  | Rel r -> C.of_relation r

let slot_rel = function Rel r -> r | s -> C.to_relation (slot_batch s)

let slot_cardinality = function
  | Rel r -> R.cardinality r
  | Bat b -> b.C.nrows
  | Fil f -> Vexec.filtered_rows f

(* Operator-level metrics, ticked only on the compute path (memo hits are
   free and counted separately). The per-operator histograms record self
   time: wall-clock time in the box minus the time spent computing its
   child boxes, so the boxes of one run add up to its [exec.run_ms] less
   the presentation (ORDER BY, LIMIT). *)
let x_boxes = Obs.Metrics.counter "exec.boxes"
let x_memo_hits = Obs.Metrics.counter "exec.memo_hits"
let x_rows = Obs.Metrics.counter "exec.rows"
let x_base_ms = Obs.Metrics.histogram "exec.base_ms"
let x_select_ms = Obs.Metrics.histogram "exec.select_ms"
let x_group_ms = Obs.Metrics.histogram "exec.group_ms"
let x_union_ms = Obs.Metrics.histogram "exec.union_ms"
let x_runs = Obs.Metrics.counter "exec.runs"
let x_run_ms = Obs.Metrics.histogram "exec.run_ms"

(* A select box hands its group its working set and selection instead of a
   result ([defer], asked only by a vectorized group box) when it ranges
   over one quantifier, is not DISTINCT, and that group is its only
   consumer. *)
let fusable g parents id =
  match (G.box g id).B.body with
  | B.Select s -> (
      (not s.B.sel_distinct)
      && List.length s.B.sel_quants = 1
      &&
      match Hashtbl.find_opt (Lazy.force parents) id with
      | Some [ _ ] -> true
      | _ -> false)
  | _ -> false

let rec run_box_memo ?budget ~parents ~defer db g memo id : slot =
  match Hashtbl.find_opt memo id with
  | Some s ->
      Obs.Metrics.incr x_memo_hits;
      s
  | None ->
      (* operator boundary: the cheapest place to notice a blown deadline
         before starting (possibly expensive) work on this box *)
      Govern.Budget.check_deadline budget;
      Obs.Metrics.incr x_boxes;
      let t0 = Obs.Metrics.now_ms () in
      let nested = ref 0.0 in
      let child ?(defer = false) q =
        let t = Obs.Metrics.now_ms () in
        Fun.protect
          ~finally:(fun () -> nested := !nested +. (Obs.Metrics.now_ms () -. t))
          (fun () -> run_box_memo ?budget ~parents ~defer db g memo q.B.q_box)
      in
      let self_time h f =
        Fun.protect
          ~finally:(fun () ->
            Obs.Metrics.observe h (Obs.Metrics.now_ms () -. t0 -. !nested))
          f
      in
      let child_rel q = slot_rel (child q) in
      let child_batch q = slot_batch (child q) in
      let child_input q =
        match child ~defer:true q with
        | Fil f -> Vexec.Filtered f
        | s -> Vexec.Batch (slot_batch s)
      in
      let s =
        match (engine (), (G.box g id).B.body) with
        | Vector, B.Base bt ->
            self_time x_base_ms (fun () -> Bat (vex (fun () -> Vexec.exec_base db bt)))
        | Reference, B.Base { bt_table; bt_cols } ->
            self_time x_base_ms (fun () ->
                Rel (R.project (Db.get_exn db bt_table) bt_cols))
        | Vector, B.Select sel ->
            self_time x_select_ms (fun () ->
                if defer && fusable g parents id then
                  Fil (vex (fun () -> Vexec.exec_select_filtered ~child:child_batch sel))
                else Bat (vex (fun () -> Vexec.exec_select ~child:child_batch sel)))
        | Reference, B.Select sel ->
            self_time x_select_ms (fun () ->
                Rel (refx (fun () -> Reference.eval_select ~child:child_rel sel)))
        | Vector, B.Group grp ->
            self_time x_group_ms (fun () ->
                Bat (vex (fun () -> Vexec.exec_group ~child:child_input grp)))
        | Reference, B.Group grp ->
            self_time x_group_ms (fun () ->
                Rel (refx (fun () -> Reference.eval_group ~child:child_rel grp)))
        | Vector, B.Union u ->
            self_time x_union_ms (fun () ->
                Bat (vex (fun () -> Vexec.exec_union ~child:child_batch u)))
        | Reference, B.Union u ->
            self_time x_union_ms (fun () ->
                Rel (refx (fun () -> Reference.eval_union ~child:child_rel u)))
      in
      Obs.Metrics.add x_rows (slot_cardinality s);
      Govern.Budget.tick_rows budget (slot_cardinality s);
      Hashtbl.add memo id s;
      s

(* ------------------------------------------------------------------ *)

let run_box ?budget db g id =
  (* arm the scratch arena for this run: every kernel buffer allocated
     below dies when the memo does, so the outermost bracket recycles the
     chunks wholesale (results are boxed relations by then) *)
  C.scratch_begin ();
  Fun.protect ~finally:C.scratch_end @@ fun () ->
  slot_rel
    (run_box_memo ?budget ~parents:(lazy (G.parents g)) ~defer:false db g
       (Hashtbl.create 16) id)

let run ?budget db g =
  Obs.Metrics.incr x_runs;
  Obs.Metrics.time x_run_ms @@ fun () ->
  let rel = run_box ?budget db g (G.root g) in
  let { G.order_by; limit } = G.presentation g in
  let rel =
    if order_by = [] then rel
    else
      let idx = List.map (fun (c, asc) -> (R.column_index rel c, asc)) order_by in
      R.sort
        (fun a b ->
          let rec go = function
            | [] -> 0
            | (i, asc) :: rest ->
                let c = V.compare a.(i) b.(i) in
                if c <> 0 then if asc then c else -c else go rest
          in
          go idx)
        rel
  in
  match limit with
  | None -> rel
  | Some n ->
      let rows = R.rows rel in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      R.create (Array.to_list (R.columns rel)) (take n rows)
