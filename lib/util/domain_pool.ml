(* One dispatch ([run_chunks] call).  Each generation gets its own job
   record, counters included, and a worker drains only the job it woke
   for: a worker still inside [drain] when the caller starts the next
   generation then touches only its own exhausted counters.  Shared
   counters reset in place would let it read a stale chunk index against
   the new task count and run a chunk twice, so the caller could count
   every task done while a slot was still unfilled, or wait for good. *)
type job = {
  body : int -> int -> unit; (* contiguous range [lo, hi) *)
  items : int;
  grain : int;
  tasks : int; (* ceil (items / grain) *)
  next : int Atomic.t; (* task (chunk) counter *)
  completed : int Atomic.t; (* finished tasks *)
}

type t = {
  total_workers : int; (* including the caller *)
  mutex : Mutex.t;
  ready : Condition.t;
  finished : Condition.t;
  mutable generation : int;
  mutable job : job; (* the current generation's dispatch *)
  mutable failure : exn option;
  mutable shutting_down : bool;
  mutable domains : unit Domain.t list;
}

let idle =
  {
    body = (fun _ _ -> ());
    items = 0;
    grain = 1;
    tasks = 0;
    next = Atomic.make 0;
    completed = Atomic.make 0;
  }

(* Work-stealing inner loop shared by workers and the caller: grab the next
   chunk until the range is exhausted.  Dispatch is per chunk, not per
   item, so a grained loop over n items costs ceil(n/grain) atomic
   fetches instead of n.  The last finisher signals [finished]. *)
let drain t job =
  let rec loop () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.tasks then begin
      let lo = c * job.grain in
      let hi = Stdlib.min job.items (lo + job.grain) in
      (try job.body lo hi
       with exn ->
         Mutex.lock t.mutex;
         if t.failure = None then t.failure <- Some exn;
         Mutex.unlock t.mutex);
      let done_count = 1 + Atomic.fetch_and_add job.completed 1 in
      if done_count = job.tasks then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end;
      loop ()
    end
  in
  loop ()

let worker t =
  let my_generation = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while t.generation = !my_generation && not t.shutting_down do
      Condition.wait t.ready t.mutex
    done;
    if t.shutting_down then Mutex.unlock t.mutex
    else begin
      my_generation := t.generation;
      let job = t.job in
      Mutex.unlock t.mutex;
      drain t job;
      loop ()
    end
  in
  loop ()

let create n =
  if n <= 0 then invalid_arg "Domain_pool.create: size must be positive";
  let t =
    {
      total_workers = n;
      mutex = Mutex.create ();
      ready = Condition.create ();
      finished = Condition.create ();
      generation = 0;
      job = idle;
      failure = None;
      shutting_down = false;
      domains = [];
    }
  in
  t.domains <- List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.total_workers

let run_chunks name t ~grain n body =
  if n < 0 then invalid_arg (name ^ ": negative count");
  if grain <= 0 then invalid_arg (name ^ ": grain must be positive");
  if n > 0 then begin
    let job =
      {
        body;
        items = n;
        grain;
        (* ceil(n/grain) without the [n + grain - 1] sum, which wraps
           negative for grain near [max_int] and silently turned the whole
           dispatch into a no-op (tasks < 0 → drain grabs nothing, wait
           exits instantly). *)
        tasks = 1 + ((n - 1) / grain);
        next = Atomic.make 0;
        completed = Atomic.make 0;
      }
    in
    Mutex.lock t.mutex;
    t.job <- job;
    t.failure <- None;
    t.generation <- t.generation + 1;
    Condition.broadcast t.ready;
    Mutex.unlock t.mutex;
    drain t job;
    Mutex.lock t.mutex;
    while Atomic.get job.completed < job.tasks do
      Condition.wait t.finished t.mutex
    done;
    let failure = t.failure in
    t.job <- idle;
    Mutex.unlock t.mutex;
    match failure with None -> () | Some exn -> raise exn
  end

let parallel_for_chunks t ~grain n body =
  run_chunks "Domain_pool.parallel_for_chunks" t ~grain n body

let parallel_for ?(grain = 1) t n body =
  run_chunks "Domain_pool.parallel_for" t ~grain n (fun lo hi ->
      for i = lo to hi - 1 do
        body i
      done)

(* All [n] items go through [parallel_for]; item 0 is not special-cased on
   the caller thread (doing so serialized the first item ahead of the
   workers and skewed parallel timings).  The option buffer exists because
   ['a] has no default element; [map] is not a steady-state kernel, so the
   per-item [Some] box is fine. *)
let map t f n =
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for t n (fun i -> results.(i) <- Some (f i));
    Array.map
      (fun r -> match r with Some v -> v | None -> assert false)
      results
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let recommended_size () = Stdlib.min 8 (Stdlib.max 1 (Domain.recommended_domain_count ()))
