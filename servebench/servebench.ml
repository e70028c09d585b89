(* End-to-end benchmark of `dadu serve`; see NOTES.md.

     servebench.exe --server-exe PATH --workload track|cold|batch
                    --seed N --seconds S --trace 0|1

   --trace 0 drives a spawned `dadu serve` and reports the end-to-end
   metrics.  --trace 1 spends half of S on the same untraced leg and half
   on a traced leg against the server run in this process, then replays
   the sampled traffic layer by layer and reports the per-layer metrics;
   its spans are written to .servebench/trace-<workload>-<seed>.jsonl.
   The last line of stdout is the result as one JSON object. *)

module Json = Dadu_util.Json
module Trace = Dadu_util.Trace

let usage () =
  prerr_endline
    "usage: servebench --server-exe PATH --workload track|cold|batch --seed N \
     --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload [ "track"; "cold"; "batch" ]) then usage ();
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (get "server-exe", workload, int "seed", float_of_int seconds, trace = 1)

(* A run must end within 180 s: past 170 s kill every server, which
   ends every load thread; past 176 s give up without a result. *)
let emergency_stop () =
  let start = Proc.now () in
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 170.;
         prerr_endline "servebench: out of time, killing the servers";
         Proc.kill_all ();
         Thread.delay (176. -. (Proc.now () -. start));
         exit 3)
       ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec remove_tree p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* (steal, total) CPU ticks of the whole host, from /proc/stat: time a
   hypervisor gave to other guests shows up as steal, and explains a
   slow run. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in_noerr ic;
    (match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
    | _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ as all ->
      Some (steal, List.fold_left ( + ) 0 all)
    | _ -> None)

let run_leg ctx workload ~seconds ~traced =
  let ticks = cpu_ticks () in
  (* the watchdog's first deadline bounds the warm-up; the timed phase
     moves it to its own end plus a grace period *)
  let watchdog = Proc.watchdog ~deadline:(Proc.now () +. 60.) in
  let leg =
    Fun.protect
      ~finally:(fun () -> Proc.disarm watchdog)
      (fun () ->
        match workload with
        | "track" -> Workloads.track ctx ~watchdog ~seconds ~traced
        | "cold" -> Workloads.cold ctx ~watchdog ~seconds ~traced
        | _ -> Workloads.batch ctx ~watchdog ~seconds ~traced)
  in
  if watchdog.Proc.fired then
    Printf.printf "watchdog: the %s leg stalled; unanswered requests count as failed\n"
      (if traced then "traced" else "untraced");
  (match (ticks, cpu_ticks ()) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
    Printf.printf "host: %.1f%% of CPU time stolen by the hypervisor during this leg\n"
      (100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | _ -> ());
  leg

let print_metric (name, value, unit) = Printf.printf "  %-32s %14.6g %s\n" name value unit

let limit_of = function
  | "track" -> Printf.sprintf "%g ms" Workloads.track_limit_ms
  | "cold" -> Printf.sprintf "%g ms" Workloads.cold_limit_ms
  | _ -> "none"

(* The gated end-to-end metrics (BENCHMARK.json), printed with the
   ungated ones; latency_p99_ms is not gated because on cold its spread
   across seeds exceeds any bound the benchmark may set (NOTES.md). *)
let end_to_end workload (leg : Workloads.leg) =
  let s = leg.summary in
  Printf.printf
    "timed phase: %d attempted, %d converged and verified, %d latency samples%s; \
     slo limit %s\n"
    s.attempted s.good s.answered
    (if s.answered < 1000 then " (fewer than 1000: p99 does not qualify)" else "")
    (limit_of workload);
  let gated =
    [
      ("latency_p50_ms", s.p50_ms, "ms");
      ("latency_p90_ms", s.p90_ms, "ms");
      ("goodput_rps", s.goodput_rps, "1/s");
      ("slo_share", s.slo_share, "ratio");
      ("setup_s", leg.setup_s, "s");
      ("server_rss_mb", leg.rss_mb, "MiB");
    ]
  in
  List.iter print_metric gated;
  List.iter print_metric
    [
      ("latency_p99_ms", s.p99_ms, "ms");
      ("failed_share", s.failed_share, "ratio");
      ("loadgen.lag_p99_ms", s.lag_p99_ms, "ms");
      ("server.drift", s.drift, "ratio");
    ];
  gated

let result ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (Checks.ok ()));
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, Json.Obj [ ("value", Json.num value); ("unit", Json.Str unit) ]))
                metrics) );
       ])

let () =
  let exe, workload, seed, seconds, traced = args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* interrupted: take the servers down too *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Proc.kill_all ();
             exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  emergency_stop ();
  let root = ".servebench" in
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let cleanup () = (try remove_tree dir with Sys_error _ -> ()) in
  let ctx = { Workloads.exe; dir; seed; trace = None } in
  Printf.printf "servebench: workload %s, seed %d, %g s, trace %d\n%!" workload seed
    seconds (Bool.to_int traced);
  match
    if not traced then begin
      let leg = run_leg ctx workload ~seconds ~traced:false in
      (leg.summary.attempted, leg.summary.failed, end_to_end workload leg)
    end
    else begin
      let half = seconds /. 2. in
      let untraced = run_leg ctx workload ~seconds:half ~traced:false in
      let trace = Trace.create () in
      let leg = run_leg { ctx with trace = Some trace } workload ~seconds:half ~traced:true in
      let batch, replay_limit =
        match workload with
        | "track" -> (Workloads.sessions, 600)
        | "cold" -> (1, 48)
        | _ -> (Workloads.batch_window, 1024)
      in
      let metrics = Layers.measure trace ~dir ~batch ~replay_limit ~untraced leg in
      let path = Filename.concat root (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
      Trace.write_jsonl trace path;
      Printf.printf "untraced leg (%g s):\n" half;
      ignore (end_to_end workload untraced);
      Printf.printf "traced leg (%g s, in-process server), per layer; %d spans in %s:\n"
        half (Trace.length trace) path;
      List.iter print_metric metrics;
      ( untraced.summary.attempted + leg.summary.attempted,
        untraced.summary.failed + leg.summary.failed,
        metrics )
    end
  with
  | attempted, failed, metrics ->
    cleanup ();
    Checks.report ();
    print_endline (result ~attempted ~failed metrics);
    exit 0
  | exception Workloads.Setup_failed msg ->
    Proc.kill_all ();
    cleanup ();
    Printf.eprintf "servebench: %s\n" msg;
    exit 1
