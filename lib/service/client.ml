module Pf = Problem_file
module Json = Dadu_util.Json
module Fault = Dadu_util.Fault
module Rng = Dadu_util.Rng

type error = Connect of string | Unrecovered of string

type outcome = {
  solves : (int * string) list;
  overloaded : int;
  reconnects : int;
}

(* ---- payload encoding ------------------------------------------------- *)

let payload_of_op ?seq id = function
  | Pf.Hello { tenant } ->
    Printf.sprintf "{\"op\":\"hello\",\"tenant\":%S}" tenant
  | Pf.Ping -> "{\"op\":\"ping\"}"
  | Pf.Stats -> "{\"op\":\"stats\"}"
  | Pf.Raw body -> body
  | Pf.Open { session; robot } ->
    Printf.sprintf "{\"op\":\"open\",\"id\":%d,\"session\":%S,\"robot\":%S}" id
      session robot
  | Pf.Close { session } ->
    Printf.sprintf "{\"op\":\"close\",\"id\":%d,\"session\":%S}" id session
  | Pf.Waypoint { session; x; y; z } ->
    let seqpart =
      match seq with
      | None -> ""
      | Some k -> Printf.sprintf ",\"seq\":%d" k
    in
    Printf.sprintf
      "{\"op\":\"waypoint\",\"id\":%d,\"session\":%S,\"target\":[%.17g,%.17g,%.17g]%s}"
      id session x y z seqpart
  | Pf.Solve { robot; x; y; z; theta0; deadline_s } ->
    let theta0 =
      match theta0 with
      | None -> ""
      | Some ts ->
        let b = Buffer.create (24 * List.length ts) in
        Json.add_floats b (Array.of_list ts);
        Printf.sprintf ",\"theta0\":[%s]" (Buffer.contents b)
    in
    let deadline =
      match deadline_s with
      | None -> ""
      | Some d -> Printf.sprintf ",\"deadline\":%.17g" d
    in
    Printf.sprintf
      "{\"op\":\"solve\",\"id\":%d,\"robot\":%S,\"target\":[%.17g,%.17g,%.17g]%s%s}"
      id robot x y z theta0 deadline

(* solve-type replies are keyed by id and dumped sorted; everything else
   (control replies, typed errors) is surfaced in arrival order — which
   is request order, because the server answers control ops from the
   connection's own reader thread *)
let reply_is_solve_type payload =
  match Json.of_string payload with
  | Error _ -> None
  | Ok json ->
    (match Option.bind (Json.member "reply" json) Json.to_str with
    | Some ("solved" | "rejected" | "faulted" | "overloaded") ->
      Option.bind (Json.member "id" json) (fun j ->
          Option.map int_of_float (Json.to_float j))
    | Some _ | None -> None)

(* ---- resilient op-stream driver --------------------------------------- *)

(* prelude re-opens after a reconnect use ids far above any script index
   so their replies are recognized and swallowed, never confused with a
   script op's reply *)
let prelude_id_base = 1_000_000

let op_session = function
  | Pf.Open { session; _ } | Pf.Waypoint { session; _ } | Pf.Close { session }
    ->
    Some session
  | Pf.Hello _ | Pf.Ping | Pf.Stats | Pf.Raw _ | Pf.Solve _ -> None

let op_idless = function
  | Pf.Hello _ | Pf.Ping | Pf.Stats | Pf.Raw _ -> true
  | Pf.Open _ | Pf.Waypoint _ | Pf.Close _ | Pf.Solve _ -> false

let run ?(retries = 0) ?(backoff_ms = 100) ?(seed = 0) ?read_timeout_s
    ?(fault = Fault.disabled) ?(on_event = fun (_ : string) -> ())
    ?(on_reconnect = fun (_ : int) -> ()) ~connect (ops : Pf.op array) =
  (* A server-side cut can land between our write and the kernel noticing
     the peer is gone; without this the second write raises SIGPIPE and
     kills the process before the Sys_error handler in [send] runs. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let n = Array.length ops in
  let op_done = Array.make n false in
  let solves = Hashtbl.create 64 in
  (* per-session waypoint index within the script: the client-side seq
     that makes resends idempotent (DESIGN.md §16).  A close starts a
     fresh "epoch" for its session name — the server-side counter
     restarts at zero when the name is re-opened, so the client's must
     too, and the seq base learned from one epoch's opened reply never
     leaks into the next. *)
  let wseq = Array.make n 0 in
  let epochs = Array.make n 0 in
  let counts = Hashtbl.create 4 in
  let closes = Hashtbl.create 4 in
  Array.iteri
    (fun i op ->
      (match op_session op with
      | Some s ->
        epochs.(i) <-
          (match Hashtbl.find_opt closes s with Some e -> e | None -> 0)
      | None -> ());
      match op with
      | Pf.Waypoint { session; _ } ->
        let k =
          match Hashtbl.find_opt counts session with Some k -> k | None -> 0
        in
        wseq.(i) <- k;
        Hashtbl.replace counts session (k + 1)
      | Pf.Close { session } ->
        Hashtbl.replace counts session 0;
        Hashtbl.replace closes session
          (1
          + match Hashtbl.find_opt closes session with Some e -> e | None -> 0)
      | _ -> ())
    ops;
  (* the script index of the open op governing each session epoch: a
     waypoint is held back until its open is answered (one round-trip
     per session), so the seq base below is always known before any
     waypoint leaves — without it, a lost opened reply would make
     resent waypoints unnumberable and they would re-solve under fresh
     ordinals *)
  let open_idx = Hashtbl.create 4 in
  Array.iteri
    (fun i op ->
      match op with
      | Pf.Open { session; _ }
        when not (Hashtbl.mem open_idx (session, epochs.(i))) ->
        Hashtbl.replace open_idx (session, epochs.(i)) i
      | _ -> ())
    ops;
  (* seq base per session epoch: the "waypoints" count of that epoch's
     FIRST opened reply — never rebased on a prelude re-open, so the
     client's own numbering stays aligned with the server's committed
     ordinals even across a server restart.  An open answered with a
     typed error records base 0 so its epoch's waypoints are not held
     back forever (the server answers them with unknown-session). *)
  let base = Hashtbl.create 4 in
  let record_base idx payload =
    match ops.(idx) with
    | Pf.Open { session; _ } when not (Hashtbl.mem base (session, epochs.(idx)))
      ->
      let w =
        match Json.of_string payload with
        | Error _ -> 0
        | Ok json ->
          (match Option.bind (Json.member "waypoints" json) Json.to_float with
          | Some w -> int_of_float w
          | None -> 0)
      in
      Hashtbl.replace base (session, epochs.(idx)) w
    | _ -> ()
  in
  let seq_of i =
    match ops.(i) with
    | Pf.Waypoint { session; _ } ->
      (match Hashtbl.find_opt base (session, epochs.(i)) with
      | Some b -> Some (b + wseq.(i))
      | None -> None)
    | _ -> None
  in
  let all_done () = Array.for_all Fun.id op_done in
  let rng = Rng.create seed in
  let reconnects = ref 0 in
  let consecutive_failures = ref 0 in
  let backoff () =
    if backoff_ms > 0 then begin
      let shift = min !consecutive_failures 6 in
      let base_ms = backoff_ms * (1 lsl shift) in
      let jitter = Rng.int rng (backoff_ms + 1) in
      Unix.sleepf (float_of_int (min (base_ms + jitter) 10_000) /. 1000.)
    end
  in
  (* one connection attempt: send the prelude (when resuming) plus every
     unanswered op, then read until all ops are answered or the wire
     fails.  Returns [`Finished] or [`Conn_failed msg]. *)
  let attempt_no = ref 0 in
  let attempt () =
    match connect () with
    | Error msg -> `Connect_failed msg
    | Ok fd ->
      let k = !attempt_no in
      incr attempt_no;
      let rfault = Fault.fork fault (2 * k) in
      let wfault = Fault.fork fault ((2 * k) + 1) in
      let oc = Unix.out_channel_of_descr fd in
      let reader = Pf.frame_reader fd in
      let resuming = Array.exists Fun.id op_done in
      (* idless replies (hello/pong/stats and raw-payload errors) carry
         no id; the server answers them in request order, so a FIFO of
         outstanding idless script ops attributes them.  Prelude replies
         are counted separately and swallowed. *)
      let idless_fifo = Queue.create () in
      let prelude_idless = ref 0 in
      let wrote_ok = ref true in
      let send payload =
        if !wrote_ok then
          match Pf.write_frame_injected ~fault:wfault oc payload with
          | true -> ()
          | false -> wrote_ok := false
          | exception (Sys_error _ | Unix.Unix_error _) -> wrote_ok := false
      in
      if resuming then begin
        (* replay the connection prelude: the last acknowledged hello
           (tenant is per-connection state) and a re-open for every
           session that still has unanswered waypoints — idempotent
           against a journal-replayed server, which answers
           resumed=true.  A session whose only pending op is its close
           is NOT re-opened: the close either still reaches the live
           session or gets a typed unknown-session error. *)
        let last_hello = ref None in
        Array.iteri
          (fun i op ->
            match op with
            | Pf.Hello _ when op_done.(i) -> last_hello := Some i
            | _ -> ())
          ops;
        (match !last_hello with
        | Some i ->
          incr prelude_idless;
          send (payload_of_op i ops.(i))
        | None -> ());
        let reopened = Hashtbl.create 4 in
        Array.iteri
          (fun i op ->
            match op with
            | Pf.Open { session; _ } when op_done.(i) ->
              let pending_waypoints =
                let found = ref false in
                Array.iteri
                  (fun j o ->
                    match o with
                    | Pf.Waypoint _
                      when (not op_done.(j))
                           && op_session o = Some session
                           && epochs.(j) = epochs.(i) ->
                      found := true
                    | _ -> ())
                  ops;
                !found
              in
              if
                pending_waypoints
                && not (Hashtbl.mem reopened (session, epochs.(i)))
              then begin
                Hashtbl.replace reopened (session, epochs.(i)) ();
                send (payload_of_op (prelude_id_base + i) op)
              end
            | _ -> ())
          ops;
        (try flush oc with Sys_error _ -> wrote_ok := false)
      end;
      (* a close is a barrier: it is written only once every earlier op
         of its session epoch is answered, so a committed close can
         never leave waypoint replies in limbo behind it — the wire
         failure modes then all reduce to "resend, server replays" *)
      let cursor = ref 0 in
      let sendable i =
        match ops.(i) with
        | Pf.Close { session } ->
          let ok = ref true in
          for j = 0 to i - 1 do
            if
              (not op_done.(j))
              && op_session ops.(j) = Some session
              && epochs.(j) = epochs.(i)
            then ok := false
          done;
          !ok
        | Pf.Waypoint { session; _ } ->
          (* held until the epoch's open is answered and the seq base
             recorded; a waypoint with no preceding open is sent as-is
             (the server answers it with a typed unknown-session) *)
          (match Hashtbl.find_opt open_idx (session, epochs.(i)) with
          | Some j when j < i -> op_done.(j)
          | Some _ | None -> true)
        | _ -> true
      in
      let pump () =
        let wrote = ref false in
        let blocked = ref false in
        while (not !blocked) && !cursor < n do
          let i = !cursor in
          if op_done.(i) then incr cursor
          else if sendable i then begin
            if op_idless ops.(i) then Queue.add i idless_fifo;
            send (payload_of_op ?seq:(seq_of i) i ops.(i));
            wrote := true;
            incr cursor
          end
          else blocked := true
        done;
        if !wrote then try flush oc with Sys_error _ -> wrote_ok := false
      in
      pump ();
      let failed = ref None in
      let finished = ref (all_done ()) in
      while Option.is_none !failed && not !finished do
        if Fault.fires rfault ~site:Fault.net_cut () <> None then
          failed := Some "injected net-cut"
        else
          match
            Pf.read_frame_fd ?idle_timeout_s:read_timeout_s
              ?frame_timeout_s:read_timeout_s reader
          with
          | exception (Sys_error _ | Unix.Unix_error _) ->
            failed := Some "read failed"
          | Pf.Eof -> failed := Some "connection closed"
          | Pf.Timed_out _ -> failed := Some "read timeout"
          | Pf.Frame_error msg -> failed := Some msg
          | Pf.Frame payload ->
            consecutive_failures := 0;
            let json = Json.of_string payload in
            let reply_type =
              match json with
              | Error _ -> None
              | Ok j -> Option.bind (Json.member "reply" j) Json.to_str
            in
            let id =
              match json with
              | Error _ -> None
              | Ok j ->
                Option.bind (Json.member "id" j) (fun v ->
                    Option.map int_of_float (Json.to_float v))
            in
            (match (reply_type, id) with
            | Some "busy", _ ->
              (* typed refusal at the server's connection cap: back off
                 and retry the whole connection *)
              failed := Some "server busy"
            | _, Some id when id >= prelude_id_base ->
              (* prelude re-open acknowledged; nothing to surface *)
              record_base (id - prelude_id_base) payload
            | _, Some id when id >= 0 && id < n ->
              if not op_done.(id) then begin
                op_done.(id) <- true;
                record_base id payload;
                match reply_is_solve_type payload with
                | Some sid -> Hashtbl.replace solves sid payload
                | None -> on_event payload
              end
            | _ ->
              (* no usable id: a prelude hello reply, or the oldest
                 outstanding idless script op's answer *)
              if !prelude_idless > 0 then decr prelude_idless
              else (
                match Queue.take_opt idless_fifo with
                | Some i ->
                  op_done.(i) <- true;
                  on_event payload
                | None -> on_event payload));
            pump ();
            if all_done () then finished := true
      done;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if !finished then `Finished
      else `Conn_failed (Option.value ~default:"connection lost" !failed)
  in
  let rec drive budget =
    match attempt () with
    | `Finished ->
      let ids =
        List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) solves [])
      in
      let pairs = List.map (fun id -> (id, Hashtbl.find solves id)) ids in
      let overloaded =
        List.fold_left
          (fun acc (_, p) ->
            match Json.of_string p with
            | Ok j
              when Option.bind (Json.member "reply" j) Json.to_str
                   = Some "overloaded" ->
              acc + 1
            | _ -> acc)
          0 pairs
      in
      Ok { solves = pairs; overloaded; reconnects = !reconnects }
    | `Connect_failed msg ->
      if !reconnects = 0 && not (Array.exists Fun.id op_done) then
        Error (Connect msg)
      else if budget > 0 then begin
        incr consecutive_failures;
        incr reconnects;
        on_reconnect !reconnects;
        backoff ();
        drive (budget - 1)
      end
      else Error (Unrecovered msg)
    | `Conn_failed msg ->
      if budget > 0 then begin
        incr consecutive_failures;
        incr reconnects;
        on_reconnect !reconnects;
        backoff ();
        drive (budget - 1)
      end
      else Error (Unrecovered msg)
  in
  if n = 0 then Ok { solves = []; overloaded = 0; reconnects = 0 }
  else drive retries
