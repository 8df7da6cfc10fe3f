(* One immutable configuration value, parsed once (DESIGN.md section 5).
   Every variable has one setter; [of_env] folds them over the default and
   the command line reuses the same setters for its flags. *)

type engine = Vector | Reference
type validate = Validate_off | Final_plan | Every_candidate
type prove = Prove_off | At_rewrite | At_define

type t = {
  engine : engine;
  validate : validate;
  prove : prove;
  limits : Budget.limits;
  equivalence_classes : bool;
  predicate_subsumption : bool;
  greedy_derivation : bool;
  smallest_cuboid : bool;
  fault_seed : int option;
  wire_stall_ms : float option;
}

let default =
  {
    engine = Vector;
    validate = Final_plan;
    prove = At_rewrite;
    limits = Budget.unlimited;
    equivalence_classes = true;
    predicate_subsumption = true;
    greedy_derivation = true;
    smallest_cuboid = true;
    fault_seed = None;
    wire_stall_ms = None;
  }

let engine_to_string = function Vector -> "vector" | Reference -> "reference"

let validate_to_string = function
  | Validate_off -> "off"
  | Final_plan -> "final-plan"
  | Every_candidate -> "every-candidate"

let prove_to_string = function
  | Prove_off -> "off"
  | At_rewrite -> "rewrite"
  | At_define -> "define"

(* [choice expected names s]: the value whose aliases include [s]. *)
let choice expected names s =
  let s = String.lowercase_ascii (String.trim s) in
  match List.find_opt (fun (aliases, _) -> List.mem s aliases) names with
  | Some (_, v) -> Ok v
  | None -> Error ("expected " ^ expected)

let engine_of_string =
  choice "vector or reference"
    [ ([ "vector"; "vectorized" ], Vector); ([ "reference"; "ref" ], Reference) ]

let validate_of_string =
  choice "0|off, 1|final-plan, or 2|every-candidate"
    [
      ([ "0"; "off"; "none" ], Validate_off);
      ([ "1"; "final"; "final-plan" ], Final_plan);
      ([ "2"; "candidates"; "every-candidate"; "all" ], Every_candidate);
    ]

let prove_of_string =
  choice "0|off, 1|rewrite, or 2|define"
    [
      ([ "0"; "off"; "none" ], Prove_off);
      ([ "1"; "rewrite"; "at-rewrite" ], At_rewrite);
      ([ "2"; "define"; "at-define"; "all" ], At_define);
    ]

let millis s =
  match float_of_string_opt (String.trim s) with
  | Some ms when Float.is_finite ms && ms >= 0. -> Ok ms
  | _ -> Error "expected a non-negative number of milliseconds"

let count s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> Ok n
  | _ -> Error "expected a non-negative integer"

let integer s =
  match int_of_string_opt (String.trim s) with
  | Some n -> Ok n
  | None -> Error "expected an integer"

(* One setter per variable: parse the value, update its field. *)
let setters =
  let field parse update k s = Result.map (update k) (parse s) in
  let limits k l = { k with limits = l } in
  [
    ("ASTQL_EXEC", field engine_of_string (fun k engine -> { k with engine }));
    ( "ASTQL_VALIDATE",
      field validate_of_string (fun k validate -> { k with validate }) );
    ("ASTQL_PROVE", field prove_of_string (fun k prove -> { k with prove }));
    ( "ASTQL_DEADLINE_MS",
      field millis (fun k ms ->
          limits k { k.limits with Budget.bl_deadline_ms = Some ms }) );
    ( "ASTQL_MATCH_BUDGET",
      field count (fun k n ->
          limits k { k.limits with Budget.bl_matches = Some n }) );
    ( "ASTQL_FAULT_SEED",
      field integer (fun k n -> { k with fault_seed = Some n }) );
    ( "ASTQL_WIRE_STALL_MS",
      field millis (fun k ms -> { k with wire_stall_ms = Some ms }) );
  ]

let set k var s =
  match List.assoc_opt var setters with
  | Some f -> f k s
  | None -> invalid_arg ("Knobs.set: unknown variable " ^ var)

let of_env get =
  List.fold_left
    (fun acc (var, f) ->
      Result.bind acc (fun k ->
          match get var with
          | None | Some "" -> Ok k
          | Some s ->
              Result.map_error (Printf.sprintf "bad %s %S: %s" var s) (f k s)))
    (Ok default) setters

let from_process = of_env Sys.getenv_opt

let process () =
  match from_process with Ok k -> k | Error m -> invalid_arg m

let to_string k =
  let off =
    List.filter_map
      (fun (name, on) -> if on then None else Some name)
      [
        ("equivalence-classes", k.equivalence_classes);
        ("predicate-subsumption", k.predicate_subsumption);
        ("greedy-derivation", k.greedy_derivation);
        ("smallest-cuboid", k.smallest_cuboid);
      ]
  in
  String.concat " "
    (List.filter_map Fun.id
       [
         Some ("engine=" ^ engine_to_string k.engine);
         Some ("validate=" ^ validate_to_string k.validate);
         Some ("prove=" ^ prove_to_string k.prove);
         Some
           ("limits="
           ^ String.map (function ' ' -> ',' | c -> c) (Budget.describe k.limits));
         (if off = [] then None else Some ("off=" ^ String.concat "," off));
         Option.map (Printf.sprintf "fault-seed=%d") k.fault_seed;
         Option.map (Printf.sprintf "wire-stall=%gms") k.wire_stall_ms;
       ])
