(* Span recorder for the traced run.

   A span is one benchmark call into a layer's public function: name,
   start, end, parent span, operation id, plus the change of a fixed set of
   {!Obs.Metrics} counters across the call (read-only loads of the
   process-wide registry). Spans are kept in memory and written out when
   the run ends. Recording is thread-safe: the durability hook records from
   a server domain. *)

let counter_names =
  [|
    "plan.requests";
    "plan.cache_hits";
    "plan.cache_misses";
    "match.calls";
    "match.accepts";
    "prove.attempts";
    "prove.proved";
    "exec.rows";
    "exec.boxes";
    "exec.fallback_boxes";
    "exec.col_decodes";
    "exec.col_decode_hits";
    "exec.col_decoded_rows";
    "govern.maint.auto_refreshes";
    "durable.wal_fsyncs";
    "durable.checkpoints";
  |]

let handles = Array.map Obs.Metrics.counter counter_names

let counter_index name =
  let rec go i =
    if i >= Array.length counter_names then invalid_arg name
    else if counter_names.(i) = name then i
    else go (i + 1)
  in
  go 0

let read_counters () = Array.map Obs.Metrics.counter_value handles

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  op : int;
  name : string;
  t0 : int64;
  t1 : int64;
  tag : int;  (** call-specific: plan-cache hit (1/0), result rows, ... *)
  deltas : int array;  (** indexed like {!counter_names} *)
}

type t = { mutable spans : span list; lock : Mutex.t; next : int Atomic.t }

let create () = { spans = []; lock = Mutex.create (); next = Atomic.make 0 }

let record t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

(* [with_span t ~op ~parent name f] runs [f id] inside a new span [id];
   [tag] derives the span's tag from the result. Exceptions are recorded
   (tag [-1]) and re-raised. *)
let with_span ?(tag = fun _ -> 0) t ~op ~parent name f =
  let id = Atomic.fetch_and_add t.next 1 in
  let c0 = read_counters () in
  let t0 = Clock.now_ns () in
  let finish tg =
    let t1 = Clock.now_ns () in
    let c1 = read_counters () in
    record t
      {
        id;
        parent;
        op;
        name;
        t0;
        t1;
        tag = tg;
        deltas = Array.mapi (fun i v -> v - c0.(i)) c1;
      }
  in
  match f id with
  | v ->
      finish (tag v);
      v
  | exception e ->
      finish (-1);
      raise e

let spans t =
  Mutex.lock t.lock;
  let s = List.rev t.spans in
  Mutex.unlock t.lock;
  s

let ms s = Clock.ms_between s.t0 s.t1
let delta s name = s.deltas.(counter_index name)

(* Self time of each span: its duration minus the union of its children's
   intervals (children of one parent never overlap here, but the union is
   taken anyway, so a hook span that outlived its parent cannot count
   twice). Returns [(span, self_ms)] for every span. *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s)
    spans;
  List.map
    (fun s ->
      let cs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = max a hi in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, hi))
          (0L, s.t0) cs
      in
      (s, Int64.to_float (Int64.sub (Int64.sub s.t1 s.t0) covered) /. 1e6))
    spans

let to_json spans =
  let origin =
    List.fold_left (fun acc s -> if s.t0 < acc then s.t0 else acc) Int64.max_int
      spans
  in
  let us t = Obs.Json.Float (Int64.to_float (Int64.sub t origin) /. 1e3) in
  Obs.Json.List
    (List.map
       (fun s ->
         Obs.Json.Obj
           ([
              ("id", Obs.Json.Int s.id);
              ("parent", Obs.Json.Int s.parent);
              ("op", Obs.Json.Int s.op);
              ("name", Obs.Json.Str s.name);
              ("start_us", us s.t0);
              ("end_us", us s.t1);
              ("tag", Obs.Json.Int s.tag);
            ]
           @ List.filter_map
               (fun (i, n) ->
                 if s.deltas.(i) = 0 then None
                 else Some (n, Obs.Json.Int s.deltas.(i)))
               (List.mapi (fun i n -> (i, n)) (Array.to_list counter_names))))
       spans)
