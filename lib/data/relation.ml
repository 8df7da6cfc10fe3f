type row = Value.t array

(* [rid] is a process-unique stamp used as a cache key by the columnar
   decoder (Engine.Column): relations are immutable, so a stamp identifies
   the payload for the relation's whole lifetime. Every construction —
   including derived relations that share [cols] — gets a fresh stamp.
   [anc] is the recent append ancestry, newest first: the stamp of each
   relation whose rows are a prefix of [data] because [append] built this
   one from it. *)
type t = { cols : string array; data : row array; rid : int; anc : int list }

let next_rid = Atomic.make 1

let make ?(anc = []) cols data =
  { cols; data; rid = Atomic.fetch_and_add next_rid 1; anc }

let id r = r.rid
let ancestry r = r.anc

(* the decode cache's capacity: an older ancestor is unlikely to be cached *)
let ancestry_cap = 16

let check_width cols rows =
  let n = Array.length cols in
  List.iter
    (fun r ->
      if Array.length r <> n then
        invalid_arg
          (Printf.sprintf "Relation.create: row width %d, schema width %d"
             (Array.length r) n))
    rows

let create cols rows =
  let cols = Array.of_list cols in
  check_width cols rows;
  make cols (Array.of_list rows)

let empty cols = make (Array.of_list cols) [||]
let columns r = Array.copy r.cols
let arity r = Array.length r.cols
let cardinality r = Array.length r.data
let rows r = Array.to_list r.data
let rows_array r = r.data

let column_index r name =
  let lname = String.lowercase_ascii name in
  let n = Array.length r.cols in
  let rec loop i =
    if i >= n then raise Not_found
    else if String.lowercase_ascii r.cols.(i) = lname then i
    else loop (i + 1)
  in
  loop 0

let mem_column r name =
  match column_index r name with _ -> true | exception Not_found -> false

let project r names =
  let idx = List.map (column_index r) names in
  let pick row = Array.of_list (List.map (fun i -> row.(i)) idx) in
  make (Array.of_list names) (Array.map pick r.data)

let append r extra =
  check_width r.cols extra;
  let anc = r.rid :: List.filteri (fun i _ -> i < ancestry_cap - 1) r.anc in
  make ~anc r.cols (Array.append r.data (Array.of_list extra))

let filter p r = make r.cols (Array.of_seq (Seq.filter p (Array.to_seq r.data)))
let map_rows f r = make r.cols (Array.map f r.data)

let sort cmp r =
  let data = Array.copy r.data in
  Array.stable_sort cmp data;
  make r.cols data

let row_compare a b =
  let n = min (Array.length a) (Array.length b) in
  let rec loop i =
    if i >= n then Stdlib.compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let distinct r =
  let seen = Hashtbl.create 64 in
  let keep row =
    let key = Array.to_list row in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  filter keep r

let bag_diff a b =
  if
    Array.length a.cols <> Array.length b.cols
    || not
         (Array.for_all2
            (fun x y -> String.lowercase_ascii x = String.lowercase_ascii y)
            a.cols b.cols)
  then invalid_arg "Relation.bag_diff: schema mismatch";
  let pending = Hashtbl.create 16 in
  Array.iter
    (fun row ->
      let key = Array.to_list row in
      let n = Option.value ~default:0 (Hashtbl.find_opt pending key) in
      Hashtbl.replace pending key (n + 1))
    b.data;
  let keep row =
    let key = Array.to_list row in
    match Hashtbl.find_opt pending key with
    | Some n when n > 0 ->
        Hashtbl.replace pending key (n - 1);
        false
    | _ -> true
  in
  make a.cols (Array.of_seq (Seq.filter keep (Array.to_seq a.data)))

let bag_equal a b =
  Array.length a.cols = Array.length b.cols
  && Array.for_all2
       (fun x y -> String.lowercase_ascii x = String.lowercase_ascii y)
       a.cols b.cols
  && Array.length a.data = Array.length b.data
  &&
  let sa = Array.copy a.data and sb = Array.copy b.data in
  Array.sort row_compare sa;
  Array.sort row_compare sb;
  let n = Array.length sa in
  let rec loop i =
    i >= n || (row_compare sa.(i) sb.(i) = 0 && loop (i + 1))
  in
  loop 0

let value_close rel_eps x y =
  match (x, y) with
  | Value.Float _, (Value.Float _ | Value.Int _)
  | Value.Int _, Value.Float _ ->
      let fa = Value.to_float x and fb = Value.to_float y in
      Float.abs (fa -. fb)
      <= rel_eps *. Float.max 1.0 (Float.max (Float.abs fa) (Float.abs fb))
  | _ -> Value.equal x y

let bag_equal_approx ?(rel_eps = 1e-9) a b =
  Array.length a.cols = Array.length b.cols
  && Array.for_all2
       (fun x y -> String.lowercase_ascii x = String.lowercase_ascii y)
       a.cols b.cols
  && Array.length a.data = Array.length b.data
  &&
  let sa = Array.copy a.data and sb = Array.copy b.data in
  Array.sort row_compare sa;
  Array.sort row_compare sb;
  let rows_close ra rb =
    Array.length ra = Array.length rb
    && Array.for_all2 (value_close rel_eps) ra rb
  in
  let n = Array.length sa in
  let rec loop i = i >= n || (rows_close sa.(i) sb.(i) && loop (i + 1)) in
  loop 0

let bag_equal_by_name a b =
  let names = Array.to_list a.cols in
  let lower = List.map String.lowercase_ascii in
  let same_set =
    List.sort compare (lower names)
    = List.sort compare (lower (Array.to_list b.cols))
  in
  same_set
  && Array.length a.cols = Array.length b.cols
  && match project b names with
     | b' -> bag_equal a b'
     | exception Not_found -> false

let pp fmt r =
  let ncols = Array.length r.cols in
  let width = Array.make ncols 0 in
  Array.iteri (fun i c -> width.(i) <- String.length c) r.cols;
  Array.iter
    (fun row ->
      Array.iteri
        (fun i v -> width.(i) <- max width.(i) (String.length (Value.to_string v)))
        row)
    r.data;
  let line ch =
    for i = 0 to ncols - 1 do
      Format.pp_print_char fmt '+';
      Format.pp_print_string fmt (String.make (width.(i) + 2) ch)
    done;
    Format.fprintf fmt "+@\n"
  in
  let cell i s = Format.fprintf fmt "| %-*s " width.(i) s in
  line '-';
  Array.iteri (fun i c -> cell i c) r.cols;
  Format.fprintf fmt "|@\n";
  line '-';
  Array.iter
    (fun row ->
      Array.iteri (fun i v -> cell i (Value.to_string v)) row;
      Format.fprintf fmt "|@\n")
    r.data;
  line '-';
  Format.fprintf fmt "(%d rows)" (Array.length r.data)

let to_string r = Format.asprintf "%a" pp r
