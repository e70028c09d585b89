(* Child processes (`dadu serve`, `dadu posture-build`) and client
   connections.  Every child is registered so an emergency stop can
   kill and reap all of them; every connection can be cut from another
   thread, which is how the watchdog unblocks a stalled load thread. *)

module Pf = Dadu_service.Problem_file

let now = Dadu_util.Trace.now_s

(* ---- processes --------------------------------------------------------- *)

type t = { pid : int; mutable reaped : bool }

let children : t list ref = ref []
let children_lock = Mutex.create ()

let spawn exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) null null
          Unix.stderr)
  in
  let t = { pid; reaped = false } in
  Mutex.lock children_lock;
  children := t :: !children;
  Mutex.unlock children_lock;
  t

(* Poll for exit until [timeout_s]; [Some status] once reaped. *)
let wait_for t ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec go () =
    if t.reaped then Some (Unix.WEXITED 0)
    else
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
        if now () >= deadline then None
        else begin
          Unix.sleepf 0.002;
          go ()
        end
      | _, status ->
        t.reaped <- true;
        Some status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        t.reaped <- true;
        Some (Unix.WEXITED 0)
  in
  go ()

let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.reaped <- true
  end

(* Graceful drain (SIGTERM), escalating to SIGKILL: a server that
   ignores SIGTERM must not outlive the run. *)
let stop t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    match wait_for t ~timeout_s:5. with Some _ -> () | None -> kill t
  end

(* Lock-free, so a signal handler may call it: reading the ref is atomic
   and the lists it holds are immutable. *)
let kill_all () = List.iter kill !children

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb t =
  match open_in (Printf.sprintf "/proc/%d/status" t.pid) with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            (match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> scan ())
        in
        scan ())

(* ---- connections ------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  clock : Mutex.t;
  mutable closed : bool;  (** guards [fd] against a cut after its reuse *)
}

(* Retry while the server has not bound its socket yet. *)
let connect ~path ~deadline =
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Some
        { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd;
          clock = Mutex.create (); closed = false }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.0002;
      go ()
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      None
  in
  go ()

let send c payload =
  try
    Pf.write_frame c.oc payload;
    flush c.oc;
    true
  with Sys_error _ | Unix.Unix_error _ -> false

let recv c =
  match Pf.read_frame c.ic with
  | Ok (Some payload) -> Some payload
  | Ok None | Error _ -> None
  | exception (Sys_error _ | End_of_file | Unix.Unix_error _) -> None

let shutdown c = try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Unblock any thread reading or writing [c]; safe from any thread. *)
let cut c =
  Mutex.lock c.clock;
  if not c.closed then shutdown c;
  Mutex.unlock c.clock

let close c =
  Mutex.lock c.clock;
  if not c.closed then begin
    c.closed <- true;
    shutdown c;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock c.clock

let call c payload = if send c payload then recv c else None

(* Seconds from [since] until a fresh server at [path] answers a ping
   (the set-up time a client of a (re)started server waits), and the
   connection that got the answer, left open for the load: a connection
   closing while the next one opens can lose the new one, because the
   server closes each connection's descriptor twice (NOTES.md). *)
let first_reply ~path ~since ~timeout_s =
  match connect ~path ~deadline:(since +. timeout_s) with
  | None -> None
  | Some c ->
    (match call c "{\"op\":\"ping\"}" with
    | Some "{\"reply\":\"pong\"}" -> Some (now () -. since, c)
    | _ ->
      close c;
      None)

(* ---- watchdog ----------------------------------------------------------- *)

(* Cuts the registered connections once its deadline passes, so a load
   thread blocked on a server that stopped answering returns and its
   unanswered requests count as failed instead of hanging the run. *)
type watchdog = {
  mutable deadline : float;
  mutable conns : conn list;
  mutable live : bool;
  mutable fired : bool;
  wlock : Mutex.t;
  mutable thread : Thread.t option;
}

let watchdog ~deadline =
  let w =
    { deadline; conns = []; live = true; fired = false; wlock = Mutex.create ();
      thread = None }
  in
  let loop () =
    let continue = ref true in
    while !continue do
      Mutex.lock w.wlock;
      let expired = w.live && now () >= w.deadline in
      if expired then begin
        w.fired <- true;
        List.iter cut w.conns
      end;
      let live = w.live && not expired in
      Mutex.unlock w.wlock;
      if live then Thread.delay 0.02 else continue := false
    done
  in
  w.thread <- Some (Thread.create loop ());
  w

let guard w c =
  Mutex.lock w.wlock;
  w.conns <- c :: w.conns;
  if w.fired then cut c;
  Mutex.unlock w.wlock

let extend w ~deadline =
  Mutex.lock w.wlock;
  w.deadline <- deadline;
  Mutex.unlock w.wlock

let disarm w =
  Mutex.lock w.wlock;
  w.live <- false;
  Mutex.unlock w.wlock;
  Option.iter Thread.join w.thread
