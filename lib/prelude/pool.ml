(* Fixed-size domain pool with deterministic, statically chunked execution.
   See pool.mli for the determinism contract. *)

let max_domains = 64

type job = {
  run : int -> unit;                (* chunk index -> unit, writes results *)
  nchunks : int;
  next : int Atomic.t;              (* next unclaimed chunk *)
  stop : bool Atomic.t;             (* set on first failure: cancel the rest *)
  fail : (int * exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  n_domains : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable current : job option;
  mutable epoch : int;        (* bumped per job; workers run each epoch once *)
  mutable checked_in : int;   (* workers finished with the current epoch *)
  mutable live : bool;
  mutable workers : unit Domain.t array;
}

let domains t = t.n_domains

let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

(* Keep the failure with the smallest chunk index seen so far. With one
   domain this is exactly the first failure in index order; with several it
   is the earliest among those that raced in before cancellation. *)
let record_fail job chunk exn bt =
  let rec keep_min () =
    let cur = Atomic.get job.fail in
    let better = match cur with None -> true | Some (c, _, _) -> chunk < c in
    if better && not (Atomic.compare_and_set job.fail cur (Some (chunk, exn, bt)))
    then keep_min ()
  in
  keep_min ();
  Atomic.set job.stop true

let run_chunks job =
  Domain.DLS.set in_worker_key true;
  let continue_ = ref true in
  while !continue_ do
    if Atomic.get job.stop then continue_ := false
    else begin
      let c = Atomic.fetch_and_add job.next 1 in
      if c >= job.nchunks then continue_ := false
      else
        try job.run c
        with exn -> record_fail job c exn (Printexc.get_raw_backtrace ())
    end
  done;
  Domain.DLS.set in_worker_key false

let worker_loop pool =
  let seen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock pool.mutex;
    while pool.live && pool.epoch = !seen do
      Condition.wait pool.work_ready pool.mutex
    done;
    if not pool.live then begin
      Mutex.unlock pool.mutex;
      continue_ := false
    end
    else begin
      seen := pool.epoch;
      let job = pool.current in
      Mutex.unlock pool.mutex;
      (match job with Some j -> run_chunks j | None -> ());
      Mutex.lock pool.mutex;
      pool.checked_in <- pool.checked_in + 1;
      Condition.signal pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let create ~domains () =
  let n = Int.max 1 (Int.min domains max_domains) in
  let pool =
    { n_domains = n;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      current = None;
      epoch = 0;
      checked_in = 0;
      live = true;
      workers = [||] }
  in
  pool.workers <-
    Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  let was_live = pool.live in
  pool.live <- false;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  if was_live then Array.iter Domain.join pool.workers;
  pool.workers <- [||]

let run_job pool job =
  if in_worker () then
    failwith "Taskpool: nested parallel call from inside a pool task";
  if job.nchunks > 0 then begin
    if pool.n_domains = 1 then
      (* Inline path: chunks claimed 0,1,2,… by the one participant — the
         sequential loop, with identical effect order. *)
      run_chunks job
    else begin
      Mutex.lock pool.mutex;
      if not pool.live then begin
        Mutex.unlock pool.mutex;
        failwith "Taskpool: pool is shut down"
      end;
      pool.current <- Some job;
      pool.epoch <- pool.epoch + 1;
      pool.checked_in <- 0;
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.mutex;
      run_chunks job;
      Mutex.lock pool.mutex;
      while pool.checked_in < pool.n_domains - 1 do
        Condition.wait pool.work_done pool.mutex
      done;
      pool.current <- None;
      Mutex.unlock pool.mutex
    end
  end;
  match Atomic.get job.fail with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let parallel_init pool ?(chunk = 1) n f =
  if n < 0 then invalid_arg "Taskpool.parallel_init: negative size";
  let chunk = Int.max 1 chunk in
  let res = Array.make n None in
  let nchunks = (n + chunk - 1) / chunk in
  let job =
    { run =
        (fun c ->
          let lo = c * chunk and hi = Int.min n ((c + 1) * chunk) in
          for i = lo to hi - 1 do
            res.(i) <- Some (f i)
          done);
      nchunks;
      next = Atomic.make 0;
      stop = Atomic.make false;
      fail = Atomic.make None }
  in
  run_job pool job;
  Array.map
    (function
      | Some v -> v
      | None -> failwith "Taskpool: task result missing (pool misuse)")
    res

let parallel_map pool ?chunk f arr =
  parallel_init pool ?chunk (Array.length arr) (fun i -> f arr.(i))

let parallel_iteri pool ?chunk f arr =
  ignore (parallel_init pool ?chunk (Array.length arr) (fun i -> f i arr.(i)))

(* ------------------------------------------------------------------ *)
(* Global pool                                                         *)
(* ------------------------------------------------------------------ *)

let global_mutex = Mutex.create ()
let default_domains_ref = ref None
let global_ref = ref None

let parse_env () =
  match Sys.getenv_opt "TQEC_DOMAINS" with
  | None -> 1
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Int.min n max_domains
      | Some _ | None -> 1)

let set_default_domains n =
  let n = Int.max 1 (Int.min n max_domains) in
  Mutex.lock global_mutex;
  default_domains_ref := Some n;
  let stale =
    match !global_ref with
    | Some p when p.n_domains <> n ->
        global_ref := None;
        Some p
    | Some _ | None -> None
  in
  Mutex.unlock global_mutex;
  match stale with Some p -> shutdown p | None -> ()

let global () =
  Mutex.lock global_mutex;
  let p =
    match !global_ref with
    | Some p -> p
    | None ->
        let n = match !default_domains_ref with Some n -> n | None -> parse_env () in
        default_domains_ref := Some n;
        let p = create ~domains:n () in
        global_ref := Some p;
        p
  in
  Mutex.unlock global_mutex;
  p
