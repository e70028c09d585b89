(* Per-layer numbers for the traced run.  The traffic sampled from the
   traced leg is replayed through each module's public entry points,
   with a Trace span around every call batch; the numbers below are
   read back from those spans, from the replies, and from the in-process
   server's own metrics. *)

open Dadu_kinematics
module Json = Dadu_util.Json
module Trace = Dadu_util.Trace
module Service = Dadu_service.Service
module Metrics = Dadu_service.Metrics
module Journal = Dadu_service.Journal
module Pf = Dadu_service.Problem_file

let passes = 5

(* Sentinel request index for the benchmark's own replay spans, apart
   from the service's per-request spans and its [-1] wave spans. *)
let replay = -2

let timed_span trace ~phase ~n f =
  Trace.span (Some trace) ~request:replay ~phase:(phase ^ "#" ^ string_of_int n) f

(* Median over passes of (span duration / calls in it), in µs. *)
let per_call_us trace ~phase =
  let prefix = phase ^ "#" in
  let np = String.length prefix in
  Summary.median
    (List.filter_map
       (fun (s : Trace.span) ->
         let p = s.Trace.phase in
         if s.Trace.request = replay && String.length p > np && String.sub p 0 np = prefix
         then
           let n = int_of_string (String.sub p np (String.length p - np)) in
           Some (s.Trace.dur_s *. 1e6 /. float_of_int n)
         else None)
       (Trace.spans trace))

let mean_len xs =
  if xs = [] then nan
  else
    float_of_int (List.fold_left (fun a s -> a + String.length s) 0 xs)
    /. float_of_int (List.length xs)

(* ---- wire codec ------------------------------------------------------------ *)

let codec trace ~requests ~replies =
  let decode phase payloads =
    let n = List.length payloads in
    if n > 0 then
      for _ = 1 to passes do
        timed_span trace ~phase ~n (fun () ->
            List.iter (fun p -> ignore (Json.of_string p)) payloads)
      done
  in
  decode "codec.request_decode" requests;
  decode "codec.reply_decode" replies;
  let r, w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr w in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () ->
      let n = List.length replies in
      if n > 0 then
        for _ = 1 to passes do
          timed_span trace ~phase:"codec.frame" ~n (fun () ->
              List.iter
                (fun p ->
                  Pf.write_frame oc p;
                  flush oc;
                  match Pf.read_frame ic with
                  | Ok (Some q) when q = p -> ()
                  | _ -> Checks.fail "frame round trip through a pipe changed a payload")
                replies)
        done);
  [
    ("codec.request_bytes", mean_len requests, "bytes");
    ("codec.reply_bytes", mean_len replies, "bytes");
    ("codec.request_decode_us", per_call_us trace ~phase:"codec.request_decode", "us");
    ("codec.reply_decode_us", per_call_us trace ~phase:"codec.reply_decode", "us");
    ("codec.frame_us", per_call_us trace ~phase:"codec.frame", "us");
  ]

(* ---- journal ----------------------------------------------------------------- *)

(* The Committed records the server journals for these replies (one-shot
   solves are not journalled by the server; their records measure the
   same codec at that workload's reply size). *)
let committed replies =
  List.map
    (fun (session, ordinal, reply) ->
      let theta =
        match Json.of_string reply with
        | Ok j when Ledger.str_member "status" j = Some "converged" -> Ledger.theta_member j
        | _ -> None
      in
      Journal.Committed
        { session = Option.value ~default:"solve" session; ordinal; theta; reply })
    replies

let journal trace ~path replies =
  let records = committed replies in
  let n = List.length records in
  if Sys.file_exists path then Sys.remove path;
  (match Journal.open_ path with
  | Error e -> Checks.fail "journal %s: %s" path (Format.asprintf "%a" Journal.pp_load_error e)
  | Ok (j, _, _) ->
    if n > 0 then
      timed_span trace ~phase:"journal.append" ~n (fun () -> List.iter (Journal.append j) records);
    Journal.close j);
  let bytes = try float_of_int (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> nan in
  for _ = 1 to passes do
    match timed_span trace ~phase:"journal.load" ~n (fun () -> Journal.load path) with
    | Ok (back, None) when List.length back = n -> ()
    | _ -> Checks.fail "journal %s did not load back its %d records" path n
  done;
  (try Sys.remove path with Sys_error _ -> ());
  [
    ("journal.bytes_per_waypoint", bytes /. float_of_int (max 1 n), "bytes");
    ("journal.append_us", per_call_us trace ~phase:"journal.append", "us");
    (* µs per record is ms per thousand records *)
    ("journal.replay_ms_per_krecord", per_call_us trace ~phase:"journal.load", "ms");
  ]

(* ---- service and solvers, replayed in process ----------------------------------- *)

(* A fresh service with the server's configuration and no domain pool,
   so every allocation is on this domain's [Gc.minor_words] and the
   solve spans do not overlap.  Requests go in batches of [batch], the
   way the workload's traffic reaches the dispatcher. *)
let service_replay trace ~config ~chain ~batch ~limit requests =
  let svc = Service.create ~config () in
  let sessions = Hashtbl.create 4 in
  let zero = Chain.clamp_config chain (Array.make (Chain.dof chain) 0.) in
  let to_request (session, (r : Inputs.request)) =
    match (session, r.theta0) with
    | Some name, _ ->
      let sess =
        match Hashtbl.find_opt sessions name with
        | Some s -> s
        | None ->
          let s = Dadu_service.Session.create ~name ~chain in
          Hashtbl.add sessions name s;
          s
      in
      let ordinal = Dadu_service.Session.next_ordinal sess in
      Service.request ~session:sess ~ordinal
        (Dadu_core.Ik.problem ~chain ~target:r.target ~theta0:(Array.copy zero))
    | None, theta0 ->
      Service.request
        (Dadu_core.Ik.problem ~chain ~target:r.target
           ~theta0:(Option.value ~default:zero theta0))
  in
  let reqs = Array.of_list (List.filteri (fun i _ -> i < limit) requests) in
  let reqs = Array.map to_request reqs in
  let words = ref 0. and iterations = ref 0 in
  let n = Array.length reqs in
  let i = ref 0 in
  while !i < n do
    let b = Array.sub reqs !i (min batch (n - !i)) in
    let w0 = Gc.minor_words () in
    let replies = Service.solve_requests ~trace svc b in
    words := !words +. (Gc.minor_words () -. w0);
    Array.iter
      (function
        | Service.Solved { result; _ } -> iterations := !iterations + result.Dadu_core.Ik.iterations
        | Service.Rejected _ | Service.Faulted _ -> ())
      replies;
    i := !i + batch
  done;
  (* solver busy time: each [solve] span covers its [fallback-tier]
     children, so the solve spans' total is the self time of both *)
  let solve_s =
    List.fold_left
      (fun a (s : Trace.span) -> if s.Trace.phase = "solve" then a +. s.Trace.dur_s else a)
      0. (Trace.spans trace)
  in
  [
    ("solver.us_per_iter", solve_s *. 1e6 /. float_of_int (max 1 !iterations), "us");
    ("gc.words_per_request", !words /. float_of_int (max 1 n), "words");
  ]

(* ---- everything ----------------------------------------------------------------- *)

let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let measure trace ~dir ~batch ~replay_limit ~untraced (leg : Workloads.leg) =
  let requests = List.rev leg.sample.requests in
  let replies = List.rev leg.sample.replies in
  let timed = Summary.timed leg.ledgers in
  let solved =
    List.filter
      (fun (e : Ledger.entry) ->
        match e.outcome with Ledger.Good | Ledger.Unconverged | Ledger.Wrong -> true | _ -> false)
      timed
  in
  let count f = List.length (List.filter f solved) in
  let iterations = List.fold_left (fun a (e : Ledger.entry) -> a + e.iterations) 0 solved in
  let m = leg.service_metrics in
  let per_req f =
    match m with
    | Some s when s.Metrics.requests > 0 -> f s *. 1e3 /. float_of_int s.Metrics.requests
    | _ -> nan
  in
  let service_p50_ms =
    match Option.bind m (fun s -> s.Metrics.latency) with
    | Some l -> l.Dadu_util.Histogram.p50 *. 1e3
    | None -> nan
  in
  let stat key = Option.bind leg.stats (Ledger.int_member key) in
  let shed =
    match (stat "overloaded", stat "requests") with
    | Some o, Some r -> share o (o + r)
    | _ -> nan
  in
  let snap f = match m with Some s -> f s | None -> nan in
  codec trace ~requests:(List.map (fun (_, (r : Inputs.request)) -> r.payload) requests)
    ~replies:(List.map (fun (_, _, p) -> p) replies)
  @ [
      ("server.shed_share", shed, "ratio");
      ("server.overhead_p50_ms", leg.summary.p50_ms -. service_p50_ms, "ms");
      ("server.drift", untraced.Workloads.summary.drift, "ratio");
      ("service.prepare_ms_per_req", per_req (fun s -> s.Metrics.prepare_s), "ms");
      ("service.work_ms_per_req", per_req (fun s -> s.Metrics.work_s), "ms");
      ("service.commit_ms_per_req", per_req (fun s -> s.Metrics.commit_s), "ms");
      ( "service.serial_share",
        snap (fun s -> Option.value ~default:nan (Metrics.serial_fraction s)),
        "ratio" );
      ("service.latency_p50_ms", service_p50_ms, "ms");
      ("solver.iters_mean", float_of_int iterations /. float_of_int (max 1 (List.length solved)), "count");
      ("solver.fallback_share", share (count (fun e -> e.fallbacks > 0)) (List.length solved), "ratio");
      ("solver.faulted", float_of_int (List.length (List.filter (fun (e : Ledger.entry) -> e.faulted) timed)), "count");
      ("seed.cache_hit_share", share (count (fun e -> e.cache_hit)) (List.length solved), "ratio");
      ( "seed.library_win_share",
        snap (fun s -> share s.Metrics.seed_library_wins s.Metrics.requests),
        "ratio" );
      ( "seed.session_warm_share",
        snap (fun s -> share s.Metrics.session_warm s.Metrics.session_requests),
        "ratio" );
    ]
  @ journal trace ~path:(Filename.concat dir "layers.journal") replies
  @ service_replay trace ~config:leg.service_config ~chain:leg.chain ~batch ~limit:replay_limit
      requests
  @ [
      ("loadgen.lag_p99_ms", leg.summary.lag_p99_ms, "ms");
      ("trace.overhead_share", (leg.summary.p50_ms /. untraced.summary.p50_ms) -. 1., "ratio");
    ]
