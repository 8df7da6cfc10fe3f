(* Seeded statement generators. Every stream is a pure function of the run
   seed and a stream number, so the same seed replays the same statements;
   the program under test only ever sees the SQL text. *)

let rng ~seed stream = Random.State.make [| seed; stream |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Endless stream of [0 .. n-1]: each round visits every index once, in a
   fresh shuffled order. *)
let rounds rng n =
  let order = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos >= n then begin
      shuffle rng order;
      pos := 0
    end;
    let i = order.(!pos) in
    incr pos;
    i

(* Endless read/write mix: each block of [every] operations holds exactly
   one write, at a seeded position. [true] means write. *)
let mix rng ~every =
  let block = Array.make every false and pos = ref every in
  fun () ->
    if !pos >= every then begin
      Array.fill block 0 every false;
      block.(Random.State.int rng every) <- true;
      pos := 0
    end;
    let w = block.(!pos) in
    incr pos;
    w

let pick rng a = a.(Random.State.int rng (Array.length a))

(* ---------------- adhoc analyst queries ---------------- *)

type join = Loc | Pgroup | Acct | Cust

(* (select item, group-by expression, output name, dimension it needs) *)
let keys =
  [|
    ("flid", "flid", "flid", None);
    ("faid", "faid", "faid", None);
    ("fpgid", "fpgid", "fpgid", None);
    ("year(date) AS year", "year(date)", "year", None);
    ("month(date) AS month", "month(date)", "month", None);
    ("qty", "qty", "qty", None);
    ("country", "country", "country", Some Loc);
    ("state", "state", "state", Some Loc);
    ("city", "city", "city", Some Loc);
    ("pgname", "pgname", "pgname", Some Pgroup);
    ("status", "status", "status", Some Acct);
    ("segment", "segment", "segment", Some Cust);
  |]

let aggregates =
  [|
    "COUNT(*)";
    "SUM(qty)";
    "SUM(qty * price)";
    "SUM(qty * price * (1 - disc))";
    "AVG(qty)";
    "AVG(price)";
    "MIN(price)";
    "MAX(price)";
    "MAX(qty)";
    "COUNT(DISTINCT faid)";
    "COUNT(DISTINCT fpgid)";
  |]

(* WHERE conjuncts over Trans; constants make most statements distinct *)
let trans_filters =
  [|
    (fun r -> Printf.sprintf "year(date) >= %d" (1994 + Random.State.int r 3));
    (fun r -> Printf.sprintf "year(date) = %d" (1994 + Random.State.int r 3));
    (fun r -> Printf.sprintf "month(date) <= %d" (1 + Random.State.int r 12));
    (fun r -> Printf.sprintf "qty >= %d" (1 + Random.State.int r 5));
    (fun r -> Printf.sprintf "flid <= %d" (1 + Random.State.int r 100));
    (fun r -> Printf.sprintf "fpgid <= %d" (1 + Random.State.int r 20));
    (fun _ -> "disc > 0.1");
  |]

let join_tables = function
  | Loc -> [ ("Loc", "flid = lid") ]
  | Pgroup -> [ ("PGroup", "fpgid = pgid") ]
  | Acct -> [ ("Acct", "faid = aid") ]
  | Cust -> [ ("Acct", "faid = aid"); ("Cust", "Acct.cid = Cust.cid") ]

(* Distinct picks from [a]: a seeded subset of size [k]. *)
let subset rng a k =
  let idx = Array.init (Array.length a) Fun.id in
  shuffle rng idx;
  List.init (min k (Array.length a)) (fun i -> a.(idx.(i)))

(* One analyst query. Group keys mix fact columns and dimension attributes
   (pulling in Loc, PGroup, Acct/Cust joins); aggregates include AVG and
   COUNT(DISTINCT), which some summary tables cannot answer; WHERE, HAVING
   and ORDER BY/LIMIT are optional. ORDER BY always ends with every group
   key, so the order is total and LIMIT picks a unique answer. *)
let adhoc_query rng =
  let r = Random.State.int rng in
  let ks = subset rng keys (if r 16 = 0 then 0 else 1 + r 3) in
  let aggs = subset rng aggregates (1 + r 3) in
  let joins =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, _, _, j) ->
           match j with None -> [] | Some j -> join_tables j)
         ks)
  in
  let loc_filter = List.mem_assoc "Loc" joins && r 3 = 0 in
  let filters =
    List.map (fun f -> f rng) (subset rng trans_filters (r 3))
    @ List.map snd joins
    @ if loc_filter then [ "country = 'USA'" ] else []
  in
  let select =
    List.map (fun (s, _, _, _) -> s) ks
    @ List.mapi (fun i a -> Printf.sprintf "%s AS a%d" a (i + 1)) aggs
  in
  let buf = Buffer.create 160 in
  let add = Buffer.add_string buf in
  add "SELECT ";
  add (String.concat ", " select);
  add " FROM ";
  add (String.concat ", " ("Trans" :: List.map fst joins));
  if filters <> [] then begin
    add " WHERE ";
    add (String.concat " AND " filters)
  end;
  if ks <> [] then begin
    add " GROUP BY ";
    add (String.concat ", " (List.map (fun (_, g, _, _) -> g) ks));
    if r 4 = 0 then add (Printf.sprintf " HAVING COUNT(*) > %d" (r 4));
    if r 2 = 0 then begin
      let names = List.map (fun (_, _, n, _) -> n) ks in
      let by = if r 2 = 0 then "a1 DESC" :: names else names in
      add " ORDER BY ";
      add (String.concat ", " by);
      if r 2 = 0 then add (Printf.sprintf " LIMIT %d" (1 + r 20))
    end
  end;
  Buffer.contents buf

(* ---------------- ingest rows ---------------- *)

type dims = { d_accts : int; d_locs : int; d_pgroups : int }

let dims_of (p : Workload.Star_schema.params) =
  {
    d_accts = p.n_custs * p.accts_per_cust;
    d_locs = p.n_locs;
    d_pgroups = p.n_pgroups;
  }

(* [insert rng d ~tids] is a multi-row INSERT INTO Trans of one seeded row
   per tid: existing foreign keys, dates inside the generated years. Also
   returns the byte length of the row tuples (the user payload). *)
let insert rng d ~tids =
  let r = Random.State.int rng in
  let tuples =
    List.map
      (fun tid ->
        Printf.sprintf "(%d, %d, %d, %d, DATE '%d-%02d-%02d', %d, %.2f, %.2f)"
          tid (1 + r d.d_accts) (1 + r d.d_locs) (1 + r d.d_pgroups)
          (1994 + r 3) (1 + r 12) (1 + r 28) (1 + r 5)
          (5. +. (float_of_int (r 49500) /. 100.))
          (pick rng [| 0.0; 0.05; 0.15; 0.25 |]))
      tids
  in
  let values = String.concat ", " tuples in
  ("INSERT INTO Trans VALUES " ^ values, String.length values)
