(* Fixed domain pool with a mutex/condition work queue.

   OCaml 5 Domains are heavyweight (one system thread plus a minor
   heap each), so the pool is built once per runtime and reused for
   every batch rather than spawning per fan-out.  Work items are
   plain thunks; fan-in state (remaining count, first exception) is
   per-call and lives in the [parallel_map] closure, guarded by its
   own mutex so concurrent pool users don't interfere. *)

type t = {
  jobs : int;
  mu : Mutex.t;
  cv : Condition.t; (* signalled when a task is enqueued or on shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let worker_loop (pool : t) () : unit =
  let continue = ref true in
  while !continue do
    Mutex.lock pool.mu;
    while Queue.is_empty pool.queue && not pool.stopping do
      Condition.wait pool.cv pool.mu
    done;
    if Queue.is_empty pool.queue then begin
      (* stopping and drained *)
      Mutex.unlock pool.mu;
      continue := false
    end
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mu;
      task ()
    end
  done

let create ~jobs : t =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    { jobs;
      mu = Mutex.create ();
      cv = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [] }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker_loop pool));
  pool

let jobs (pool : t) : int = pool.jobs

let submit (pool : t) (task : unit -> unit) : unit =
  Mutex.lock pool.mu;
  Queue.push task pool.queue;
  Condition.signal pool.cv;
  Mutex.unlock pool.mu

let parallel_map (pool : t) (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  if n = 0 then [||]
  else if pool.jobs <= 1 || n = 1 then Array.map f xs
  else begin
    let results : 'b option array = Array.make n None in
    (* One chunk per participant (workers + caller), contiguous so the
       write pattern is cache-friendly and the partition deterministic. *)
    let nchunks = min pool.jobs n in
    let per = (n + nchunks - 1) / nchunks in
    let done_mu = Mutex.create () in
    let done_cv = Condition.create () in
    let remaining = ref nchunks in
    let failure : exn option ref = ref None in
    let run_chunk i () =
      (try
         let lo = i * per in
         let hi = min n (lo + per) in
         for j = lo to hi - 1 do
           results.(j) <- Some (f xs.(j))
         done
       with e ->
         Mutex.lock done_mu;
         if !failure = None then failure := Some e;
         Mutex.unlock done_mu);
      Mutex.lock done_mu;
      decr remaining;
      if !remaining = 0 then Condition.signal done_cv;
      Mutex.unlock done_mu
    in
    for i = 1 to nchunks - 1 do
      submit pool (run_chunk i)
    done;
    (* The caller is participant 0. *)
    run_chunk 0 ();
    Mutex.lock done_mu;
    while !remaining > 0 do
      Condition.wait done_cv done_mu
    done;
    let failed = !failure in
    Mutex.unlock done_mu;
    (match failed with Some e -> raise e | None -> ());
    Array.map (function Some r -> r | None -> assert false) results
  end

let shutdown (pool : t) : unit =
  Mutex.lock pool.mu;
  pool.stopping <- true;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.mu;
  List.iter Domain.join pool.workers;
  pool.workers <- []
