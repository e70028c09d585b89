(* The three workloads, each against a spawned `dadu serve` (the
   end-to-end numbers) or against the same server run in this process
   (the traced run, which can read the service's own metrics). *)

open Dadu_kinematics
module Server = Dadu_service.Server
module Service = Dadu_service.Service
module Pf = Dadu_service.Problem_file
module Json = Dadu_util.Json

let now = Proc.now

type ctx = {
  exe : string;  (** the `dadu` binary *)
  dir : string;  (** scratch directory inside the checkout *)
  seed : int;
  trace : Dadu_util.Trace.t option;
      (** traced legs record one client span per settled request *)
}

let record_span ctx (e : Ledger.entry) ~at =
  Option.iter
    (fun tr ->
      Dadu_util.Trace.record tr ~request:e.id ~phase:"client.request"
        ~start_s:e.due ~dur_s:(at -. e.due) ())
    ctx.trace

(* ---- sizes -------------------------------------------------------------- *)

let accuracy = Service.default_config.Service.accuracy
let restarts = 15 (* server starts per run; setup_s is their median *)

(* track *)
let track_dof = 100
let sessions = 2
let leg1 = 1500 (* waypoints per session before the SIGKILL *)
let compared = 100 (* post-restart waypoints checked against the reference *)
let track_warmup = 1000 (* post-restart waypoints before the timed phase *)
let track_limit_ms = 1.
let track_rss_after = 20_000 (* timed waypoints per session before server_rss_mb *)

(* cold *)
let cold_dof = 100
let cold_warmup = 100
let cold_limit_ms = 12.
let cold_rss_after = 1000

(* batch *)
let batch_dof = 30
let batch_window = 128 (* outstanding solves; far below the 1024-deep queue *)
let batch_lag = batch_window (* a revisit trails its target by 2 lag + 1 requests *)
let batch_warmup = 1024
let batch_rss_after = 20_000
let library_postures = 4096
let seed_candidates = 5

(* ---- servers ------------------------------------------------------------ *)

type server = {
  sock : string;
  stop : unit -> unit;
  kill : unit -> unit;  (** SIGKILL for a spawned server, else [stop] *)
  rss_mb : unit -> float;
  service : Service.t option;  (** in-process servers only *)
  spare : Proc.conn option Atomic.t;  (** the first-reply connection, unused yet *)
}

let close_spare srv = Option.iter Proc.close (Atomic.exchange srv.spare None)

(* server_rss_mb is the server's peak resident memory once it has been
   sent a fixed number of requests ([mark], an id), not at the end of the
   run: the server's metrics keep every latency sample, so a reading at
   the end would grow with the number of requests the run's seconds
   held, that is with its speed.  A run that never gets there reads at
   its end. *)
type rss = { mark : int; mutable mb : float }

let rss_at mark = { mark; mb = nan }
let rss_probe rss srv id = if id = rss.mark then rss.mb <- srv.rss_mb ()

exception Setup_failed of string

let setup_failed fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt

(* Spawn `dadu serve` and wait for its first reply; the wait is one
   setup_s sample. *)
let spawn ctx ~sock args =
  let since = now () in
  let p = Proc.spawn ctx.exe ("serve" :: "--listen" :: ("unix:" ^ sock) :: args) in
  match Proc.first_reply ~path:sock ~since ~timeout_s:60. with
  | None ->
    Proc.kill p;
    setup_failed "dadu serve %s did not answer a ping" (String.concat " " args)
  | Some (setup, conn) ->
    ( { sock;
        stop = (fun () -> Proc.stop p);
        kill = (fun () -> Proc.kill p);
        rss_mb = (fun () -> Proc.peak_rss_mb p);
        service = None;
        spare = Atomic.make (Some conn) },
      setup )

(* [restarts] starts of the same server; all but the last are killed.
   Returns the last one and the median start-up time. *)
let spawn_repeatedly ctx ~sock args =
  let rec go k acc =
    let srv, setup = spawn ctx ~sock args in
    if k = restarts then (srv, Summary.median (setup :: acc))
    else begin
      close_spare srv;
      srv.kill ();
      go (k + 1) (setup :: acc)
    end
  in
  go 1 []

(* The `dadu serve` defaults, for the in-process server. *)
let serve_config ?journal ?library ?(candidates = 1) () =
  {
    Server.default_config with
    Server.service =
      {
        Service.default_config with
        Service.max_iterations = 10_000;
        seed_library = library;
        seed_candidates = candidates;
      };
    journal;
  }

let in_process ~sock config =
  let size = Dadu_util.Domain_pool.recommended_size () in
  let pool = if size > 1 then Some (Dadu_util.Domain_pool.create size) else None in
  let t = Server.create ?pool ~config () in
  let th = Thread.create (fun () -> Server.run t ~listen:(Server.Unix_sock sock)) () in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Server.stop t;
      Thread.join th;
      Option.iter Dadu_util.Domain_pool.shutdown pool
    end
  in
  match Proc.first_reply ~path:sock ~since:(now ()) ~timeout_s:60. with
  | Some (_, conn) ->
    { sock; stop; kill = stop; rss_mb = (fun () -> nan);
      service = Some (Server.service t); spare = Atomic.make (Some conn) }
  | None ->
    stop ();
    setup_failed "in-process server did not answer a ping"

let connect watchdog srv =
  let c =
    match Atomic.exchange srv.spare None with
    | Some c -> c
    | None ->
      (match Proc.connect ~path:srv.sock ~deadline:(now () +. 10.) with
      | None -> setup_failed "cannot connect to %s" srv.sock
      | Some c -> c)
  in
  Proc.guard watchdog c;
  c

(* The server's [stats] reply, asked on a load connection before it
   closes (a fresh connection could race the others' closing). *)
let stats_of conn =
  Option.bind (Proc.call conn "{\"op\":\"stats\"}") (fun p ->
      Result.to_option (Json.of_string p))

(* ---- what one leg of a workload hands back ------------------------------- *)

(* A bounded sample of timed traffic, replayed layer by layer in the
   traced run. *)
type sample = {
  mutable requests : (string option * Inputs.request) list;  (** newest first *)
  mutable replies : (string option * int * string) list;  (** newest first *)
  mutable nrequests : int;
  mutable nreplies : int;
  slock : Mutex.t;
}

let sample_cap = 1024

let new_sample () =
  { requests = []; replies = []; nrequests = 0; nreplies = 0; slock = Mutex.create () }

(* The first requests made (warm-up included: the service replay starts
   from a cold server, as the traced leg did) and the first timed
   replies. *)
let keep_request sample ~session (r : Inputs.request) =
  Mutex.lock sample.slock;
  if sample.nrequests < sample_cap then begin
    sample.requests <- (session, r) :: sample.requests;
    sample.nrequests <- sample.nrequests + 1
  end;
  Mutex.unlock sample.slock

let keep_reply sample ~session (e : Ledger.entry) payload =
  Mutex.lock sample.slock;
  if e.timed && sample.nreplies < sample_cap then begin
    sample.replies <- (session, e.id, payload) :: sample.replies;
    sample.nreplies <- sample.nreplies + 1
  end;
  Mutex.unlock sample.slock

type leg = {
  summary : Summary.t;
  ledgers : Ledger.t list;
  setup_s : float;
  rss_mb : float;
  chain : Chain.t;
  sample : sample;
  service_config : Service.config;
  stats : Json.t option;
  service_metrics : Dadu_service.Metrics.snapshot option;
}

let finish ?rss ~seconds ~limit_ms ~setup_s ~chain ~sample ~service_config ~stats
    (srv : server) ledgers =
  let rss_mb =
    match rss with
    | Some { mb; _ } when not (Float.is_nan mb) -> mb
    | Some _ | None -> srv.rss_mb ()
  in
  let service_metrics = Option.map Service.metrics srv.service in
  close_spare srv;
  srv.stop ();
  {
    summary = Summary.of_ledgers ~seconds ~limit_ms ledgers;
    ledgers;
    setup_s;
    rss_mb;
    chain;
    sample;
    service_config;
    stats;
    service_metrics;
  }

let reset_service srv () = Option.iter Service.reset_metrics srv.service

(* Against the server in this process the load runs in a domain of its
   own: sharing the main domain's runtime lock with the server's reader
   and dispatcher threads, a reply landing while they hold it would be
   stamped late. *)
let drive srv ~watchdog ~span streams =
  let go () = Drive.closed_loops ~watchdog ~span streams in
  if srv.service = None then go () else Domain.join (Domain.spawn go)

(* ---- track --------------------------------------------------------------- *)

let opened_ok payload ~resumed ~waypoints =
  match Json.of_string payload with
  | Error _ -> false
  | Ok j ->
    Ledger.str_member "reply" j = Some "opened"
    && Json.member "resumed" j = Some (Json.Bool resumed)
    && Ledger.int_member "waypoints" j = Some waypoints

(* Every session streams on its own connection, and the sessions take
   turns (Drive.closed_loops), all from one thread: with one waypoint in
   flight at a time, a two-core host measures the server's path rather
   than its scheduler juggling two loads.  [on_reply s e payload] sees
   each settled reply of session [s]. *)
let run_sessions ctx ~watchdog ~chain ~srv ~first ~span ~on_reply ?sample ?on_timed ?rss () =
  let robot = Inputs.spec (Chain.dof chain) in
  let ledgers = Array.init sessions (fun _ -> Ledger.create ~first_id:first) in
  let scratch = Fk.make_scratch ~dof:(Chain.dof chain) () in
  let one s =
    let name = Printf.sprintf "s%d" s in
    let traj = Inputs.trajectory ~seed:ctx.seed ~session:s chain in
    let conn = connect watchdog srv in
    let opened =
      Proc.call conn
        (Dadu_service.Client.payload_of_op first (Pf.Open { session = name; robot }))
    in
    (match opened with
    | Some p when opened_ok p ~resumed:(first > 0) ~waypoints:first -> ()
    | Some p -> Checks.fail "session %s: unexpected open reply %s" name (Checks.clip p)
    | None -> Checks.fail "session %s: no reply to open" name);
    let make id =
      let r = Inputs.waypoint traj ~session:name ~id in
      Option.iter (fun smp -> keep_request smp ~session:(Some name) r) sample;
      if s = 0 then Option.iter (fun rss -> rss_probe rss srv id) rss;
      r
    in
    let settle ~at payload =
      Option.iter
        (fun e ->
          record_span ctx e ~at;
          on_reply s e payload)
        (Ledger.settle ledgers.(s) ~chain ~scratch ~accuracy ~at payload)
    in
    Drive.stream ?on_timed ~conn ~ledger:ledgers.(s) ~window:1 ~make ~settle ()
  in
  let streams = List.init sessions one in
  drive srv ~watchdog ~span streams;
  let stats = stats_of (List.hd streams).conn in
  List.iter (fun (st : Drive.stream) -> Proc.close st.conn) streams;
  (Array.to_list ledgers, stats)

(* Reply bytes of an uninterrupted server, per session and waypoint. *)
let reference ctx ~watchdog ~chain =
  let refs = Array.init sessions (fun _ -> Array.make (leg1 + compared) "") in
  let srv, _ = spawn ctx ~sock:(Filename.concat ctx.dir "ref.sock") [] in
  Fun.protect ~finally:srv.stop (fun () ->
      ignore
        (run_sessions ctx ~watchdog ~chain ~srv ~first:0 ~span:(Drive.Count (leg1 + compared))
           ~on_reply:(fun s (e : Ledger.entry) payload -> refs.(s).(e.id) <- payload)
           ()));
  (* the same seed must print the same digest on every run and machine *)
  Printf.printf "track: reference replies (%d per session) digest %s\n" (leg1 + compared)
    (Digest.to_hex
       (Digest.string (String.concat "\n" (List.concat_map Array.to_list (Array.to_list refs)))));
  refs

let compare_with refs s (e : Ledger.entry) payload =
  if e.id < Array.length refs.(s) then
    if refs.(s).(e.id) = payload then Checks.identical ()
    else
      Checks.fail "session s%d waypoint %d: reply differs from the uninterrupted reference"
        s e.id

let track ctx ~watchdog ~seconds ~traced =
  let chain = Robots.eval_chain ~dof:track_dof in
  let sample = new_sample () in
  let refs = reference ctx ~watchdog ~chain in
  let sock = Filename.concat ctx.dir "track.sock" in
  let journal = Filename.concat ctx.dir (if traced then "traced.journal" else "track.journal") in
  if Sys.file_exists journal then Sys.remove journal;
  let span = Drive.Timed { warmup = track_warmup; seconds } in
  let service_config = (serve_config ~journal ()).Server.service in
  if traced then begin
    (* no kill here: one uninterrupted in-process life, checked against
       the spawned reference *)
    let srv = in_process ~sock (serve_config ~journal ()) in
    let span =
      Drive.Timed { warmup = leg1 + compared + track_warmup; seconds }
    in
    let ledgers, stats =
      run_sessions ctx ~watchdog ~chain ~srv ~first:0 ~span ~sample
        ~on_timed:(reset_service srv)
        ~on_reply:(fun s e p ->
          compare_with refs s e p;
          keep_reply sample ~session:(Some (Printf.sprintf "s%d" s)) e p)
        ()
    in
    finish ~seconds ~limit_ms:(Some track_limit_ms) ~setup_s:nan ~chain ~sample
      ~service_config ~stats srv ledgers
  end
  else begin
    let args = [ "--journal"; journal ] in
    let srv, _ = spawn ctx ~sock args in
    ignore
      (run_sessions ctx ~watchdog ~chain ~srv ~first:0 ~span:(Drive.Count leg1)
         ~on_reply:(compare_with refs) ());
    srv.kill ();
    (* every restart replays the journal the first leg wrote *)
    let srv, setup_s = spawn_repeatedly ctx ~sock args in
    let rss = rss_at (leg1 + track_warmup + track_rss_after) in
    let ledgers, stats =
      run_sessions ctx ~watchdog ~chain ~srv ~first:leg1 ~span ~rss
        ~on_reply:(compare_with refs) ()
    in
    finish ~rss ~seconds ~limit_ms:(Some track_limit_ms) ~setup_s ~chain ~sample
      ~service_config ~stats srv ledgers
  end

(* ---- cold and batch: one-shot solves on one connection ------------------ *)

let one_connection ctx ~watchdog ~srv ~chain ~sample ~rss ~window ~span ~make =
  let conn = connect watchdog srv in
  let ledger = Ledger.create ~first_id:0 in
  let scratch = Fk.make_scratch ~dof:(Chain.dof chain) () in
  let settle ~at payload =
    Option.iter
      (fun e ->
        record_span ctx e ~at;
        keep_reply sample ~session:None e payload)
      (Ledger.settle ledger ~chain ~scratch ~accuracy ~at payload)
  in
  let make id =
    let r = make id in
    keep_request sample ~session:None r;
    rss_probe rss srv id;
    r
  in
  drive srv ~watchdog ~span
    [ Drive.stream ~on_timed:(reset_service srv) ~conn ~ledger ~window ~make ~settle () ];
  let stats = stats_of conn in
  Proc.close conn;
  ([ ledger ], stats)

let cold ctx ~watchdog ~seconds ~traced =
  let chain = Robots.eval_chain ~dof:cold_dof in
  let sample = new_sample () in
  let config = serve_config () in
  let sock = Filename.concat ctx.dir "cold.sock" in
  let srv, setup_s =
    if traced then (in_process ~sock config, nan) else spawn_repeatedly ctx ~sock []
  in
  let gen = Inputs.cold ~seed:ctx.seed chain in
  let rss = rss_at (cold_warmup + cold_rss_after) in
  let ledgers, stats =
    one_connection ctx ~watchdog ~srv ~chain ~sample ~rss ~window:1
      ~span:(Drive.Timed { warmup = cold_warmup; seconds })
      ~make:(fun id -> Inputs.cold_request gen ~id)
  in
  finish ~rss ~seconds ~limit_ms:(Some cold_limit_ms) ~setup_s ~chain ~sample
    ~service_config:config.Server.service ~stats srv ledgers

let posture_library ctx =
  let out = Filename.concat ctx.dir "batch.plib" in
  let p =
    Proc.spawn ctx.exe
      [ "posture-build"; "--robot"; Inputs.spec batch_dof; "-k";
        string_of_int library_postures;
        (* not the request stream's seed: the library must not hold the
           very postures the targets are sampled from *)
        "--seed"; string_of_int (ctx.seed + 1_000_003); "-o"; out ]
  in
  (match Proc.wait_for p ~timeout_s:120. with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ -> setup_failed "dadu posture-build failed"
  | None ->
    Proc.kill p;
    setup_failed "dadu posture-build did not finish");
  out

let batch ctx ~watchdog ~seconds ~traced =
  let chain = Robots.eval_chain ~dof:batch_dof in
  let sample = new_sample () in
  let lib_path = posture_library ctx in
  let library =
    match Dadu_service.Posture_library.load lib_path with
    | Ok lib -> lib
    | Error e ->
      setup_failed "%s: %s" lib_path
        (Format.asprintf "%a" Dadu_service.Posture_library.pp_load_error e)
  in
  let config = serve_config ~library ~candidates:seed_candidates () in
  let sock = Filename.concat ctx.dir "batch.sock" in
  let srv, setup_s =
    if traced then (in_process ~sock config, nan)
    else
      spawn_repeatedly ctx ~sock
        [ "--seed-library"; lib_path; "--seed-candidates"; string_of_int seed_candidates ]
  in
  let gen = Inputs.batch ~seed:ctx.seed ~lag:batch_lag chain in
  let rss = rss_at (batch_warmup + batch_rss_after) in
  let ledgers, stats =
    one_connection ctx ~watchdog ~srv ~chain ~sample ~rss ~window:batch_window
      ~span:(Drive.Timed { warmup = batch_warmup; seconds })
      ~make:(fun id -> Inputs.batch_request gen ~id)
  in
  finish ~rss ~seconds ~limit_ms:None ~setup_s ~chain ~sample
    ~service_config:config.Server.service ~stats srv ledgers
