(* Engine dispatcher.

   Three engines implement the QGM operators:
   - [Vector] (default): batch-at-a-time over typed columns ({!Vexec}),
     falling back per box to the row interpreter for anything outside the
     vectorized subset;
   - [Row]: the original tuple-at-a-time interpreter, kept in this file;
   - [Reference]: the naive oracle's operators ({!Reference}), runnable
     under the same memoized recursion so the full test suite can exercise
     it via [ASTQL_EXEC=reference].

   The recursion skeleton ([run_box_memo]) is engine-agnostic: one memo
   slot per box (holding the result as a relation, a column batch, or
   lazily both), deadline checks and row metering at operator boundaries,
   per-operator metrics. Engines interoperate within a plan because slots
   convert between representations on demand. *)

exception Exec_error of string

let err fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

module V = Data.Value
module R = Data.Relation
module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph
module C = Column

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

type engine = Vector | Row | Reference

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "vector" | "vectorized" -> Some Vector
  | "row" -> Some Row
  | "reference" | "ref" -> Some Reference
  | _ -> None

let engine_to_string = function
  | Vector -> "vector"
  | Row -> "row"
  | Reference -> "reference"

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

module VH = Vexec.VH

(* ------------------------------------------------------------------ *)
(* Aggregate accumulators (row engine)                                 *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable cnt : int;
  mutable nonnull : int;
  mutable sum : V.t;
  mutable mn : V.t;
  mutable mx : V.t;
  mutable seen : unit VH.t option;  (* for DISTINCT: keys are [v] singletons *)
}

let new_acc (agg : E.agg) =
  {
    cnt = 0;
    nonnull = 0;
    sum = V.Null;
    mn = V.Null;
    mx = V.Null;
    seen = (if agg.E.distinct then Some (VH.create 8) else None);
  }

let acc_add acc v =
  acc.cnt <- acc.cnt + 1;
  (* constructor test, not polymorphic compare: a NaN inside [Float] makes
     [v <> V.Null] unreliable (structural (=) on nan is false for equal
     boxes), which silently corrupted NaN-carrying aggregates *)
  if not (V.is_null v) then begin
    let fresh =
      match acc.seen with
      | None -> true
      | Some tbl ->
          if VH.mem tbl [ v ] then false
          else begin
            VH.add tbl [ v ] ();
            true
          end
    in
    if fresh then begin
      acc.nonnull <- acc.nonnull + 1;
      acc.sum <- (if V.is_null acc.sum then v else V.add acc.sum v);
      acc.mn <- (if V.is_null acc.mn || V.compare v acc.mn < 0 then v else acc.mn);
      acc.mx <- (if V.is_null acc.mx || V.compare v acc.mx > 0 then v else acc.mx)
    end
  end

let acc_result (agg : E.agg) acc =
  match agg.E.fn with
  | E.Count_star -> V.Int acc.cnt
  | E.Count -> V.Int acc.nonnull
  | E.Sum -> acc.sum
  | E.Min -> acc.mn
  | E.Max -> acc.mx
  | E.Avg ->
      if acc.nonnull = 0 then V.Null
      else V.Float (V.to_float acc.sum /. float_of_int acc.nonnull)

(* ------------------------------------------------------------------ *)
(* Row-engine select box: incremental hash join                        *)
(* ------------------------------------------------------------------ *)

type layout = (int * string) array  (* (quant_id, lowercased column) *)

let layout_index (layout : layout) quant col =
  let col = String.lowercase_ascii col in
  let n = Array.length layout in
  let rec go i =
    if i >= n then None
    else
      let q, c = layout.(i) in
      if q = quant && c = col then Some i else go (i + 1)
  in
  go 0

let lookup_in layout tuple { B.quant; col } =
  match layout_index layout quant col with
  | Some i -> tuple.(i)
  | None -> err "unresolved column reference q%d.%s" quant col

let pred_quant_set p = List.sort_uniq compare (List.map (fun r -> r.B.quant) (E.cols p))

let row_select ~(child : B.quant -> R.t) (sel : B.select_body) : R.t =
  let { B.sel_quants = quants; sel_preds = preds; sel_outs = outs; sel_distinct = distinct } =
    sel
  in
  (* initial layout: all scalar-subquery columns as constants *)
  let init_layout = ref [] and init_tuple = ref [] in
  List.iter
    (fun q ->
      if q.B.q_kind = B.Scalar then begin
        let rel = child q in
        let row =
          match R.cardinality rel with
          | 0 -> Array.make (R.arity rel) V.Null
          | 1 -> (R.rows_array rel).(0)
          | n -> err "scalar subquery returned %d rows" n
        in
        Array.iteri
          (fun i col ->
            init_layout :=
              !init_layout @ [ (q.B.q_id, String.lowercase_ascii col) ];
            init_tuple := !init_tuple @ [ row.(i) ])
          (R.columns rel)
      end)
    quants;
  let layout = ref (Array.of_list !init_layout) in
  let tuples = ref [ Array.of_list !init_tuple ] in
  (* predicate bookkeeping *)
  let pending = ref (List.map (fun p -> (p, pred_quant_set p)) preds) in
  let layout_quants () =
    Array.to_list !layout |> List.map fst |> List.sort_uniq compare
  in
  let apply_applicable () =
    let avail = layout_quants () in
    let applicable, rest =
      List.partition
        (fun (_, qs) -> List.for_all (fun q -> List.mem q avail) qs)
        !pending
    in
    pending := rest;
    List.iter
      (fun (p, _) ->
        let l = !layout in
        tuples :=
          List.filter
            (fun t -> Eval.is_satisfied (lookup_in l t) p)
            !tuples)
      applicable
  in
  apply_applicable ();
  (* join in the foreach quantifiers one by one *)
  List.iter
    (fun q ->
      if q.B.q_kind = B.Foreach then begin
        let rel = child q in
        let rel_cols =
          Array.map String.lowercase_ascii (R.columns rel)
        in
        let col_idx name =
          let name = String.lowercase_ascii name in
          let n = Array.length rel_cols in
          let rec go i =
            if i >= n then err "column %s missing in child of quantifier %d" name q.B.q_id
            else if rel_cols.(i) = name then i
            else go (i + 1)
          in
          go 0
        in
        (* find usable equi-join predicates: new-side col = layout-side ref *)
        let keys = ref [] in
        pending :=
          List.filter
            (fun (p, _) ->
              match p with
              | E.Binop ("=", E.Col a, E.Col b) ->
                  let try_pair x y =
                    if
                      x.B.quant = q.B.q_id
                      && layout_index !layout y.B.quant y.B.col <> None
                    then begin
                      keys := (col_idx x.B.col, y) :: !keys;
                      true
                    end
                    else false
                  in
                  not (try_pair a b || try_pair b a)
              | _ -> true)
            !pending;
        let new_layout =
          Array.append !layout
            (Array.map (fun c -> (q.B.q_id, c)) rel_cols)
        in
        let joined =
          if !keys = [] then
            (* cross product *)
            List.concat_map
              (fun t ->
                List.map (fun row -> Array.append t row) (R.rows rel))
              !tuples
          else begin
            let key_idxs = List.map fst !keys in
            let probe_refs = List.map snd !keys in
            let ht = VH.create (max 16 (R.cardinality rel)) in
            Array.iter
              (fun row ->
                let kv = List.map (fun i -> row.(i)) key_idxs in
                if not (List.exists V.is_null kv) then
                  VH.add ht kv row)
              (R.rows_array rel);
            List.concat_map
              (fun t ->
                let kv =
                  List.map (fun r -> lookup_in !layout t r) probe_refs
                in
                if List.exists V.is_null kv then []
                else
                  List.rev_map
                    (fun row -> Array.append t row)
                    (VH.find_all ht kv))
              !tuples
          end
        in
        layout := new_layout;
        tuples := joined;
        apply_applicable ()
      end)
    quants;
  if !pending <> [] then
    err "predicate references unavailable quantifier (internal error)";
  (* project outputs *)
  let l = !layout in
  let out_names = List.map fst outs in
  let out_exprs = List.map snd outs in
  let rows =
    List.map
      (fun t ->
        Array.of_list
          (List.map (fun e -> Eval.eval (lookup_in l t) e) out_exprs))
      !tuples
  in
  let rel = R.create out_names rows in
  if distinct then R.distinct rel else rel

(* ------------------------------------------------------------------ *)
(* Row-engine group box                                                *)
(* ------------------------------------------------------------------ *)

let row_group ~(child : B.quant -> R.t) (grp : B.group_body) : R.t =
  let { B.grp_quant = quant; grp_grouping = grouping; grp_aggs = aggs } = grp in
  let child = child quant in
  let idx name = R.column_index child name in
  let union_cols = B.grouping_union grouping in
  let out_names = union_cols @ List.map fst aggs in
  let agg_specs =
    List.map
      (fun (_, { B.agg; arg }) -> (agg, Option.map idx arg))
      aggs
  in
  let cuboid set =
    let set_l = List.map String.lowercase_ascii set in
    let key_idx = List.map idx set in
    let groups = VH.create 64 in
    let order = ref [] in
    Array.iter
      (fun row ->
        let key = List.map (fun i -> row.(i)) key_idx in
        let accs =
          match VH.find_opt groups key with
          | Some a -> a
          | None ->
              let a = List.map (fun (agg, _) -> new_acc agg) agg_specs in
              VH.add groups key a;
              order := key :: !order;
              a
        in
        List.iter2
          (fun acc (_, arg_i) ->
            let v = match arg_i with Some i -> row.(i) | None -> V.Null in
            acc_add acc v)
          accs agg_specs)
      (R.rows_array child);
    let keys =
      if VH.length groups = 0 && set = [] then begin
        (* grand total over empty input still produces one row *)
        VH.add groups [] (List.map (fun (agg, _) -> new_acc agg) agg_specs);
        [ [] ]
      end
      else List.rev !order
    in
    List.map
      (fun key ->
        let accs = VH.find groups key in
        let union_vals =
          List.map
            (fun col ->
              match
                List.find_index
                  (fun c -> c = String.lowercase_ascii col)
                  set_l
              with
              | Some j -> List.nth key j
              | None -> V.Null)
            union_cols
        in
        let agg_vals =
          List.map2 (fun acc (agg, _) -> acc_result agg acc) accs agg_specs
        in
        Array.of_list (union_vals @ agg_vals))
      keys
  in
  let rows = List.concat_map cuboid (B.grouping_sets grouping) in
  R.create out_names rows

let row_union ~(child : B.quant -> R.t) (u : B.union_body) : R.t =
  let rows =
    List.concat_map
      (fun q ->
        let rel = child q in
        if R.arity rel <> List.length u.B.un_cols then
          err "UNION branch arity mismatch";
        R.rows rel)
      u.B.un_quants
  in
  let rel = R.create u.B.un_cols rows in
  if u.B.un_all then rel else R.distinct rel

(* ------------------------------------------------------------------ *)
(* Memoized recursion over boxes                                       *)
(* ------------------------------------------------------------------ *)

(* A memo slot holds a box's result in whichever representation the engine
   produced, converting (and caching the conversion) on demand — so a
   vectorized parent can consume a row-engine fallback child and vice
   versa. A select handed to its group unprojected ([sfil]) materializes
   only if something else asks for its result. *)
type slot = {
  mutable srel : R.t option;
  mutable sbat : C.batch option;
  sfil : Vexec.filtered option;
}

let slot_of_rel r = { srel = Some r; sbat = None; sfil = None }
let slot_of_batch b = { srel = None; sbat = Some b; sfil = None }

(* Vectorized operators report internal invariant violations through their
   own exception; surface them as executor errors. Reference operators
   likewise, so [ASTQL_EXEC=reference] behaves as a drop-in engine. *)
let vex f = try f () with Vexec.Error m -> raise (Exec_error m)
let refx f = try f () with Reference.Reference_error m -> raise (Exec_error m)

let slot_batch s =
  match s.sbat with
  | Some b -> b
  | None ->
      let b =
        match s.sfil with
        | Some f -> vex (fun () -> Vexec.materialize f)
        | None -> C.of_relation (Option.get s.srel)
      in
      s.sbat <- Some b;
      b

let slot_rel s =
  match s.srel with
  | Some r -> r
  | None ->
      let r = C.to_relation (slot_batch s) in
      s.srel <- Some r;
      r

let slot_cardinality s =
  match (s.sbat, s.sfil) with
  | Some b, _ -> b.C.nrows
  | None, Some f -> Vexec.filtered_rows f
  | None, None -> R.cardinality (Option.get s.srel)

(* Operator-level metrics, ticked only on the compute path (memo hits are
   free and counted separately). The per-operator histograms record self
   time: wall-clock time in the box minus the time spent computing its
   child boxes, so the boxes of one run add up to its [exec.run_ms] less
   the presentation (ORDER BY, LIMIT). *)
let x_boxes = Obs.Metrics.counter "exec.boxes"
let x_vec_boxes = Obs.Metrics.counter "exec.vec_boxes"
let x_fallback_boxes = Obs.Metrics.counter "exec.fallback_boxes"
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
        let s = child ~defer:true q in
        match (s.sbat, s.sfil) with
        | None, Some f -> Vexec.Filtered f
        | _ -> Vexec.Batch (slot_batch s)
      in
      let eng = engine () in
      let body = (G.box g id).B.body in
      (* a box runs vectorized iff the engine is [Vector] and the body is
         inside the vectorized subset; otherwise it degrades to the row
         operator (counted), keeping the rest of the plan vectorized *)
      let vectorized = eng = Vector && Vexec.box_supported body in
      if vectorized then Obs.Metrics.incr x_vec_boxes
      else if eng = Vector then Obs.Metrics.incr x_fallback_boxes;
      let s =
        match body with
        | B.Base ({ bt_table; bt_cols } as bt) ->
            self_time x_base_ms (fun () ->
                if vectorized then slot_of_batch (vex (fun () -> Vexec.exec_base db bt))
                else slot_of_rel (R.project (Db.get_exn db bt_table) bt_cols))
        | B.Select sel ->
            self_time x_select_ms (fun () ->
                if vectorized && defer && fusable g parents id then
                  {
                    srel = None;
                    sbat = None;
                    sfil =
                      Some
                        (vex (fun () -> Vexec.exec_select_filtered ~child:child_batch sel));
                  }
                else if vectorized then
                  slot_of_batch
                    (vex (fun () -> Vexec.exec_select ~child:child_batch sel))
                else if eng = Reference then
                  slot_of_rel
                    (refx (fun () -> Reference.eval_select ~child:child_rel sel))
                else slot_of_rel (row_select ~child:child_rel sel))
        | B.Group grp ->
            self_time x_group_ms (fun () ->
                if vectorized then
                  slot_of_batch
                    (vex (fun () -> Vexec.exec_group ~child:child_input grp))
                else if eng = Reference then
                  slot_of_rel
                    (refx (fun () -> Reference.eval_group ~child:child_rel grp))
                else slot_of_rel (row_group ~child:child_rel grp))
        | B.Union u ->
            self_time x_union_ms (fun () ->
                if eng = Reference then
                  slot_of_rel
                    (refx (fun () -> Reference.eval_union ~child:child_rel u))
                else slot_of_rel (row_union ~child:child_rel u))
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
