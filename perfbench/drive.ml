(* Closed-loop load: each client issues its next operation only after the
   previous one has answered, as an analyst or a loader waiting on a reply
   does. *)

type kind = Read | Write

type sample = { kind : kind; ms : float }

(* [closed_loop ~clients ~seconds ~enough step] runs [step c] back to back
   on every client [c] until [seconds] have passed and [enough ~reads
   ~writes] holds for the sample counts so far — a tail percentile needs
   its samples — but never past three times [seconds]. One client runs on
   the calling thread, more run on threads of their own. Returns each
   client's samples (newest first) and the elapsed seconds. *)
let closed_loop ~clients ~seconds ~enough step =
  let reads = Atomic.make 0 and writes = Atomic.make 0 in
  let stop = Atomic.make false in
  let t0 = Clock.now_ns () in
  let elapsed () = Clock.s_between t0 (Clock.now_ns ()) in
  let done_ () =
    Atomic.get stop
    ||
    let el = elapsed () in
    let fin =
      el >= 3. *. seconds
      || (el >= seconds && enough ~reads:(Atomic.get reads) ~writes:(Atomic.get writes))
    in
    if fin then Atomic.set stop true;
    fin
  in
  let body c =
    let acc = ref [] in
    while not (done_ ()) do
      let s = step c in
      Atomic.incr (match s.kind with Read -> reads | Write -> writes);
      acc := s :: !acc
    done;
    !acc
  in
  let results =
    if clients = 1 then [| body 0 |]
    else begin
      let out = Array.make clients [] in
      let ths =
        List.init clients (fun c -> Thread.create (fun () -> out.(c) <- body c) ())
      in
      List.iter Thread.join ths;
      out
    end
  in
  (results, elapsed ())

(* For passes that need no tail percentile. *)
let no_minimum ~reads:_ ~writes:_ = true

let latencies kind results =
  Array.fold_left
    (fun acc l ->
      List.fold_left (fun acc s -> if s.kind = kind then s.ms :: acc else acc) acc l)
    [] results

let count results = Array.fold_left (fun n l -> n + List.length l) 0 results
