module E = Qgm.Expr
module B = Qgm.Box
module G = Qgm.Graph

let norm = String.lowercase_ascii

let base_table_of g box_id =
  match (G.box g box_id).B.body with
  | B.Base { bt_table; _ } -> Some bt_table
  | _ -> None

let cols_are_key cat g box_id cols =
  let box = G.box g box_id in
  match box.B.body with
  | B.Base { bt_table; _ } -> Catalog.is_unique_key cat bt_table cols
  | B.Group { grp_grouping = B.Simple keys; _ } ->
      let cols = List.map norm cols in
      List.for_all (fun k -> List.mem (norm k) cols) keys
  | B.Group _ | B.Select _ | B.Union _ -> false
