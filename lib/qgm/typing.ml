module E = Expr
module B = Box
module V = Data.Value

let norm = String.lowercase_ascii

let rec col_type cat g box_id col =
  let box = Graph.box g box_id in
  match box.B.body with
  | B.Base { bt_table; _ } -> (
      match Catalog.find_table cat bt_table with
      | None -> V.Tstr
      | Some tbl -> (
          match Catalog.find_column tbl col with
          | Some c -> c.Catalog.col_ty
          | None -> V.Tstr))
  | B.Select sel -> (
      match
        List.find_opt (fun (n, _) -> norm n = norm col) sel.B.sel_outs
      with
      | Some (_, e) -> expr_type cat g sel.B.sel_quants e
      | None -> V.Tstr)
  | B.Union u -> (
      match u.B.un_quants with
      | q :: _ ->
          let child_cols = B.output_cols (Graph.box g q.B.q_box) in
          let idx =
            let rec find i = function
              | [] -> None
              | c :: rest ->
                  if norm c = norm col then Some i else (ignore rest; find (i + 1) rest)
            in
            find 0 u.B.un_cols
          in
          (match idx with
          | Some i when i < List.length child_cols ->
              col_type cat g q.B.q_box (List.nth child_cols i)
          | _ -> V.Tstr)
      | [] -> V.Tstr)
  | B.Group grp ->
      let child = grp.B.grp_quant.B.q_box in
      if List.exists (fun c -> norm c = norm col) (B.grouping_union grp.B.grp_grouping)
      then col_type cat g child col
      else (
        match
          List.find_opt (fun (n, _) -> norm n = norm col) grp.B.grp_aggs
        with
        | Some (_, { B.agg; arg }) -> (
            match agg.E.fn with
            | E.Count_star | E.Count -> V.Tint
            | E.Avg -> V.Tfloat
            | E.Sum | E.Min | E.Max -> (
                match arg with
                | Some a -> col_type cat g child a
                | None -> V.Tint))
        | None -> V.Tstr)

and expr_type cat g quants e =
  let of_col { B.quant; col } =
    match List.find_opt (fun q -> q.B.q_id = quant) quants with
    | Some q -> col_type cat g q.B.q_box col
    | None -> V.Tstr
  in
  match e with
  | E.Const (V.Int _) -> V.Tint
  | E.Const (V.Float _) -> V.Tfloat
  | E.Const (V.Str _) -> V.Tstr
  | E.Const (V.Bool _) -> V.Tbool
  | E.Const (V.Date _) -> V.Tdate
  | E.Const V.Null -> V.Tstr
  | E.Col c -> of_col c
  | E.Unop ("NOT", _) -> V.Tbool
  | E.Unop (_, e) -> expr_type cat g quants e
  | E.Binop (("AND" | "OR" | "=" | "<>" | "<" | "<=" | ">" | ">="), _, _) ->
      V.Tbool
  | E.Binop ("||", _, _) -> V.Tstr
  | E.Binop ("/", a, b) | E.Binop ("*", a, b) | E.Binop ("+", a, b)
  | E.Binop ("-", a, b) -> (
      match (expr_type cat g quants a, expr_type cat g quants b) with
      | V.Tint, V.Tint -> V.Tint
      | (V.Tint | V.Tfloat), (V.Tint | V.Tfloat) -> V.Tfloat
      | t, _ -> t)
  | E.Binop ("%", _, _) -> V.Tint
  | E.Binop (_, a, _) -> expr_type cat g quants a
  | E.Fncall (("year" | "month" | "day" | "length" | "mod"), _) -> V.Tint
  | E.Fncall ("float", _) -> V.Tfloat
  | E.Fncall (("upper" | "lower"), _) -> V.Tstr
  | E.Fncall ("coalesce", args) -> (
      match args with
      | a :: _ -> expr_type cat g quants a
      | [] -> V.Tstr)
  | E.Fncall ("abs", [ a ]) -> expr_type cat g quants a
  | E.Fncall (_, _) -> V.Tstr
  | E.Agg ({ E.fn = E.Count | E.Count_star; _ }, _) -> V.Tint
  | E.Agg ({ E.fn = E.Avg; _ }, _) -> V.Tfloat
  | E.Agg (_, Some a) -> expr_type cat g quants a
  | E.Agg (_, None) -> V.Tint
  | E.Is_null _ -> V.Tbool
  | E.Case (arms, els) -> (
      match (arms, els) with
      | (_, v) :: _, _ -> expr_type cat g quants v
      | [], Some e -> expr_type cat g quants e
      | [], None -> V.Tstr)

let infer_outputs cat g =
  let root = Graph.root g in
  List.map
    (fun c -> (c, col_type cat g root c))
    (B.output_cols (Graph.box g root))

let rec column_nullable cat g box_id col =
  let box = Graph.box g box_id in
  match box.B.body with
  | B.Base { bt_table; _ } -> Catalog.column_nullable cat bt_table col
  | B.Select { sel_quants = quants; sel_outs = outs; _ } -> (
      match
        List.find_opt (fun (n, _) -> norm n = norm col) outs
      with
      | None -> true
      | Some (_, e) -> expr_nullable cat g quants e)
  | B.Union u ->
      (* nullable when nullable in any branch, aligned positionally *)
      let idx =
        let rec find i = function
          | [] -> None
          | c :: rest ->
              if norm c = norm col then Some i else (ignore rest; find (i + 1) rest)
        in
        find 0 u.B.un_cols
      in
      (match idx with
      | None -> true
      | Some i ->
          List.exists
            (fun q ->
              let child_cols = B.output_cols (Graph.box g q.B.q_box) in
              i >= List.length child_cols
              || column_nullable cat g q.B.q_box (List.nth child_cols i))
            u.B.un_quants)
  | B.Group { grp_quant = quant; grp_grouping = grouping; grp_aggs = aggs } -> (
      let union = B.grouping_union grouping in
      if List.exists (fun c -> norm c = norm col) union then
        (* NULL-padded in cuboids that exclude the column (section 5) *)
        let in_every_set =
          List.for_all
            (fun set -> List.exists (fun c -> norm c = norm col) set)
            (B.grouping_sets grouping)
        in
        (not in_every_set)
        || column_nullable cat g quant.B.q_box col
      else
        match
          List.find_opt (fun (n, _) -> norm n = norm col) aggs
        with
        | Some (_, { B.agg = { E.fn = E.Count | E.Count_star; _ }; _ }) -> false
        | Some _ -> true (* SUM/MIN/MAX/AVG of all-NULL group is NULL *)
        | None -> true)

and expr_nullable cat g quants e =
  match e with
  | E.Const v -> v = V.Null
  | E.Col { B.quant; col } -> (
      match List.find_opt (fun q -> q.B.q_id = quant) quants with
      | None -> true
      | Some q ->
          (* a scalar subquery returning no rows yields NULL *)
          q.B.q_kind = B.Scalar || column_nullable cat g q.B.q_box col)
  | E.Unop (_, e) -> expr_nullable cat g quants e
  | E.Binop (("AND" | "OR"), a, b) ->
      expr_nullable cat g quants a || expr_nullable cat g quants b
  | E.Binop (_, a, b) ->
      expr_nullable cat g quants a || expr_nullable cat g quants b
  | E.Fncall ("coalesce", args) ->
      List.for_all (expr_nullable cat g quants) args
  | E.Fncall (_, args) -> List.exists (expr_nullable cat g quants) args
  | E.Agg _ -> true
  | E.Is_null _ -> false
  | E.Case (arms, els) -> (
      List.exists (fun (_, v) -> expr_nullable cat g quants v) arms
      || match els with None -> true | Some e -> expr_nullable cat g quants e)
