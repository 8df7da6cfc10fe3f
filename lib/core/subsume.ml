module E = Qgm.Expr
module V = Data.Value

(* After E.normalize, [>] and [>=] have been flipped into [<] / [<=], so a
   comparison is [lhs OP rhs]. We handle the constant-vs-expression cases. *)
let bounds e =
  match e with
  | E.Binop ("<", E.Const c, x) -> Some (`Lower (x, c, `Open))   (* c < x *)
  | E.Binop ("<=", E.Const c, x) -> Some (`Lower (x, c, `Closed))
  | E.Binop ("<", x, E.Const c) -> Some (`Upper (x, c, `Open))   (* x < c *)
  | E.Binop ("<=", x, E.Const c) -> Some (`Upper (x, c, `Closed))
  | _ -> None

(* On a discrete (INT/DATE) column a strict bound equals the non-strict
   bound on the adjacent point: [x > 9] is [x >= 10].  Normalizing the
   open endpoint through the type oracle is what relates such pairs; for
   dense or untyped columns the bound is left alone (sound). *)
let norm_bound ty = function
  | `Lower (x, c, `Open) as b -> (
      match Prove.Domain.succ_value (ty x) c with
      | Some c' -> `Lower (x, c', `Closed)
      | None -> b)
  | `Upper (x, c, `Open) as b -> (
      match Prove.Domain.pred_value (ty x) c with
      | Some c' -> `Upper (x, c', `Closed)
      | None -> b)
  | b -> b

let no_ty _ = None

let subsumes ~prove ~ty ~weak ~strong =
  (* lift the column oracle to (sub)expressions once *)
  let ety = Prove.key_ty ~col:ty in
  let weak = E.normalize weak and strong = E.normalize strong in
  if weak = strong then true
  else
    let single_bound () =
      match (Option.map (norm_bound ety) (bounds weak),
             Option.map (norm_bound ety) (bounds strong))
      with
      | Some (`Lower (x, c1, k1)), Some (`Lower (y, c2, k2)) when x = y ->
          (* c1 < x subsumes c2 < x iff c1 <= c2 (strictness permitting) *)
          let c = V.compare c1 c2 in
          c < 0 || (c = 0 && (k1 = k2 || (k1 = `Closed && k2 = `Open)))
      | Some (`Upper (x, c1, k1)), Some (`Upper (y, c2, k2)) when x = y ->
          let c = V.compare c1 c2 in
          c > 0 || (c = 0 && (k1 = k2 || (k1 = `Closed && k2 = `Open)))
      | _ -> false
    in
    single_bound ()
    || (prove <> Govern.Knobs.Prove_off
       && Prove.is_proved
            (Prove.subsumed ~ty:ety ~weak:[ weak ] ~strong:[ strong ]))
