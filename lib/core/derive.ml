module E = Qgm.Expr
module M = Mtypes
module V = Data.Value

let norm = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Scalar derivation (SELECT patterns)                                 *)
(* ------------------------------------------------------------------ *)

let scalar ~equiv ~r_outs t =
  let canon e =
    if !Config.equivalence_classes then E.normalize (Equiv.canon equiv e)
    else E.normalize e
  in
  let canon_outs = List.map (fun (n, o) -> (n, canon o)) r_outs in
  let find_out e =
    let ce = canon e in
    List.find_map (fun (n, o) -> if o = ce then Some n else None) canon_outs
  in
  let whole = ref true in
  let rec go t =
    (* with greedy derivation off, only the whole expression and bare
       column leaves may be covered (ablation switch) *)
    let coverable =
      !Config.greedy_derivation || !whole
      || match t with E.Col _ -> true | _ -> false
    in
    whole := false;
    match (if coverable then find_out t else None) with
    | Some n -> Some (E.Col (M.Below n))
    | None -> (
        match t with
        | E.Const v -> Some (E.Const v)
        | E.Col (M.Rj r) -> Some (E.Col (M.Rejoin r))
        | E.Col (M.Rin _) | E.Agg _ -> None
        | E.Unop (op, e) -> Option.map (fun e -> E.Unop (op, e)) (go e)
        | E.Binop (op, a, b) -> (
            match (go a, go b) with
            | Some a, Some b -> Some (E.Binop (op, a, b))
            | _ -> None)
        | E.Fncall (f, args) ->
            let args' = List.filter_map go args in
            if List.length args' = List.length args then
              Some (E.Fncall (f, args'))
            else None
        | E.Is_null (e, pos) -> Option.map (fun e -> E.Is_null (e, pos)) (go e)
        | E.Case (arms, els) -> (
            let arms' =
              List.filter_map
                (fun (c, v) ->
                  match (go c, go v) with
                  | Some c, Some v -> Some (c, v)
                  | _ -> None)
                arms
            in
            if List.length arms' <> List.length arms then None
            else
              match els with
              | None -> Some (E.Case (arms', None))
              | Some e -> Option.map (fun e -> E.Case (arms', Some e)) (go e)))
  in
  go t

(* ------------------------------------------------------------------ *)
(* Aggregate derivation (GROUP BY patterns)                            *)
(* ------------------------------------------------------------------ *)

type group_env = {
  ge_equiv : M.cref Equiv.t;
  ge_cuboid : string list;
  ge_r_aggs : (string * E.agg * string option) list;
  ge_arg_nullable : string -> bool;
  ge_ekey_cols : string list option;
  ge_scalar : bool;
}

let restrict_to_cols equiv cols t =
  let cols = List.map norm cols in
  E.subst_col
    (fun c ->
      match c with
      | M.Rejoin _ -> Some (E.Col c)
      | M.Below x ->
          if List.mem (norm x) cols then Some (E.Col (M.Below x))
          else
            List.find_map
              (fun m ->
                match m with
                | M.Below y when List.mem (norm y) cols -> Some (E.Col m)
                | _ -> None)
              (Equiv.members equiv c))
    t

(* canonical single-column view of an argument expression *)
let as_col env t =
  match E.normalize t with
  | E.Col (M.Below y) -> Some y
  | e -> (
      match Equiv.canon env.ge_equiv e with
      | E.Col (M.Below y) -> Some y
      | _ -> None)

let same_col env a b = Equiv.same env.ge_equiv (M.Below a) (M.Below b)

let find_r_agg env fn ~distinct y =
  List.find_map
    (fun (n, agg, arg) ->
      match arg with
      | Some y'
        when agg.E.fn = fn && agg.E.distinct = distinct && same_col env y' y ->
          Some n
      | _ -> None)
    env.ge_r_aggs

let find_count_star env =
  List.find_map
    (fun (n, agg, _) -> if agg.E.fn = E.Count_star then Some n else None)
    env.ge_r_aggs

(* COUNT(z) with z non-nullable can stand in for COUNT star. *)
let find_count_nonnull env =
  List.find_map
    (fun (n, agg, arg) ->
      match (agg.E.fn, arg) with
      | E.Count, Some z when (not agg.E.distinct) && not (env.ge_arg_nullable z)
        ->
          Some n
      | _ -> None)
    env.ge_r_aggs

let find_row_count env =
  match find_count_star env with
  | Some n -> Some n
  | None -> find_count_nonnull env

(* keys-only form: every Below leaf rewritten into the cuboid, no rejoins *)
let keys_only env t =
  match restrict_to_cols env.ge_equiv env.ge_cuboid t with
  | Some t' when not (E.exists_sub (function E.Col (M.Rejoin _) -> true | _ -> false) t')
    ->
      Some t'
  | _ -> None

let rec expr_nonnull env t =
  match t with
  | E.Const v -> v <> V.Null
  | E.Col (M.Below x) -> not (env.ge_arg_nullable x)
  | E.Col (M.Rejoin _) -> false
  | E.Is_null _ -> true
  | E.Unop (_, e) -> expr_nonnull env e
  | E.Binop (_, a, b) -> expr_nonnull env a && expr_nonnull env b
  | E.Fncall (_, args) -> List.for_all (expr_nonnull env) args
  | E.Agg _ -> false
  | E.Case (arms, els) -> (
      List.for_all (fun (_, v) -> expr_nonnull env v) arms
      && match els with Some e -> expr_nonnull env e | None -> false)

let sum_of n = E.Agg ({ E.fn = E.Sum; distinct = false }, Some (E.Col (M.Below n)))

let agg_direct env (agg : E.agg) arg =
  match (agg.E.fn, arg) with
  | E.Count_star, _ -> find_count_star env
  | _, Some t ->
      Option.bind (as_col env t) (fun y ->
          find_r_agg env agg.E.fn ~distinct:agg.E.distinct y)
  | _, None -> None

(* SUM derivation: direct partial sums, grouping-column rewrites multiplied
   by the row count, or linear scalings of a derivable SUM. *)
let rec derive_sum env t =
  match Option.bind (as_col env t) (fun y -> find_r_agg env E.Sum ~distinct:false y) with
  | Some n -> Some (sum_of n)
  | None -> (
      match keys_only env t with
      | Some kt -> (
          match find_row_count env with
          | Some cnt ->
              Some
                (E.Agg
                   ( { E.fn = E.Sum; distinct = false },
                     Some (E.Binop ("*", kt, E.Col (M.Below cnt))) ))
          | None -> None)
      | None -> (
          (* linear cases: c * u, u * c, -u *)
          match E.normalize t with
          | E.Binop ("*", E.Const c, u) | E.Binop ("*", u, E.Const c) ->
              Option.map
                (fun du -> E.Binop ("*", E.Const c, du))
                (derive_sum env u)
          | E.Unop ("-", u) ->
              Option.map (fun du -> E.Unop ("-", du)) (derive_sum env u)
          | _ -> None))

(* A count re-derived as a SUM of partial counts. A scalar aggregate over
   no rows sums to NULL where the count it stands for is 0; with grouping
   keys an empty group yields no row, so only the scalar case needs it. *)
let count_of_sum env s =
  if env.ge_scalar then E.Fncall ("coalesce", [ s; E.Const (V.Int 0) ]) else s

let derive_count_star env =
  Option.map (fun n -> count_of_sum env (sum_of n)) (find_row_count env)

let derive_count env t =
  match Option.bind (as_col env t) (fun y -> find_r_agg env E.Count ~distinct:false y) with
  | Some n -> Some (count_of_sum env (sum_of n))
  | None ->
      if expr_nonnull env t then derive_count_star env
      else
        (* argument rewritable over grouping columns: rows of a subsumer
           group share the value, so count cnt when it is non-null *)
        Option.bind (keys_only env t) (fun kt ->
            Option.map
              (fun cnt ->
                count_of_sum env
                  (E.Agg
                     ( { E.fn = E.Sum; distinct = false },
                       Some
                         (E.Case
                            ( [ (E.Is_null (kt, false), E.Col (M.Below cnt)) ],
                              Some (E.Const (V.Int 0)) )) )))
              (find_row_count env))

let derive_minmax env fn t =
  match Option.bind (as_col env t) (fun y -> find_r_agg env fn ~distinct:false y) with
  | Some n -> Some (E.Agg ({ E.fn; distinct = false }, Some (E.Col (M.Below n))))
  | None ->
      (* constant within each subsumer group: aggregate the rewritten value *)
      Option.map
        (fun kt -> E.Agg ({ E.fn; distinct = false }, Some kt))
        (keys_only env t)

(* COUNT(DISTINCT x) / SUM(DISTINCT x): x must be (equivalent to) a subsumer
   grouping column y. When the subsumer groups exactly by the subsumee keys
   plus y, each distinct y appears once per subsumee group, so the plain
   aggregate suffices (the paper's rules f/g); otherwise re-deduplicate with
   a DISTINCT aggregate. *)
let derive_distinct env fn t =
  match as_col env t with
  | None -> None
  | Some y ->
      let y_in_cuboid =
        List.exists (fun c -> same_col env c y) env.ge_cuboid
      in
      if not y_in_cuboid then None
      else
        let exact =
          match env.ge_ekey_cols with
          | None -> false
          | Some ekeys ->
              let target = List.sort_uniq compare (List.map norm (y :: ekeys)) in
              let cuboid = List.sort_uniq compare (List.map norm env.ge_cuboid) in
              target = cuboid
        in
        Some
          (E.Agg
             ( { E.fn; distinct = not exact },
               Some (E.Col (M.Below y)) ))

let agg_regroup env (agg : E.agg) arg =
  match (agg.E.fn, agg.E.distinct, arg) with
  | E.Count_star, _, _ -> derive_count_star env
  | E.Count, false, Some t -> derive_count env t
  | E.Sum, false, Some t -> derive_sum env t
  | (E.Min | E.Max), false, Some t -> derive_minmax env agg.E.fn t
  | E.Avg, false, Some t ->
      Option.bind (derive_sum env t) (fun s ->
          Option.map
            (fun c -> E.Binop ("/", E.Fncall ("float", [ s ]), c))
            (derive_count env t))
  | E.Count, true, Some t -> derive_distinct env E.Count t
  | E.Sum, true, Some t -> derive_distinct env E.Sum t
  | _ -> None
