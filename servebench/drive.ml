(* The load shape every workload uses: closed loops on one or more
   connections, all driven from the calling thread.  Each stream records
   every request in a ledger and ends by itself: a warm-up of [warmup]
   requests, then a timed phase of [seconds] measured from the due time
   of its first timed request.  [Count n] sends exactly [n] requests,
   none timed. *)

let now = Dadu_util.Trace.now_s

type span = Count of int | Timed of { warmup : int; seconds : float }

(* After the timed phase ends, replies still owed get this long before
   the watchdog cuts the connection and counts them as failed. *)
let grace_s = 10.

type settle = at:float -> string -> unit

type stream = {
  conn : Proc.conn;
  ledger : Ledger.t;
  window : int;  (** requests outstanding on [conn] *)
  make : int -> Inputs.request;
  settle : settle;
  on_timed : unit -> unit;  (** called once, as the timed phase starts *)
}

let stream ?(on_timed = ignore) ~conn ~ledger ~window ~make ~settle () =
  { conn; ledger; window; make; settle; on_timed }

type state = {
  s : stream;
  mutable next : int;
  mutable ready : Inputs.request;
  mutable outstanding : int;
  mutable t_end : float;
  mutable alive : bool;
}

(* Closed loops: a reply frees its slot and the next request is due at
   that instant.  One stream keeps [window] requests outstanding on its
   connection.  Several streams (each with a window of 1) take turns: a
   reply on one stream makes the next stream's request due, so exactly
   one request is in flight at any time, as in a servo loop that ticks
   its arms in sequence.  The next request is built before the reply it
   waits for arrives, and a reply is checked only after its successor
   went out, so the client's own work stays out of the measured
   latency. *)
let closed_loops ~watchdog ~span streams =
  let n = List.length streams in
  if n > 1 && List.exists (fun s -> s.window <> 1) streams then
    invalid_arg "Drive.closed_loops: streams that take turns need a window of 1";
  let more x t =
    x.alive
    &&
    match span with
    | Count n -> x.next - x.s.ledger.Ledger.first_id < n
    | Timed { warmup; _ } -> x.next - x.s.ledger.Ledger.first_id < warmup || t < x.t_end
  in
  let send_one x due =
    let k = x.next - x.s.ledger.Ledger.first_id in
    let timed =
      match span with
      | Count _ -> false
      | Timed { warmup; seconds } ->
        if k = warmup then begin
          x.t_end <- due +. seconds;
          Proc.extend watchdog ~deadline:(x.t_end +. grace_s);
          x.s.on_timed ()
        end;
        k >= warmup
    in
    let r = x.ready in
    let e = Ledger.add x.s.ledger ~due ~target:r.target ~timed in
    x.next <- x.next + 1;
    e.sent <- now ();
    if Proc.send x.s.conn r.payload then x.outstanding <- x.outstanding + 1
    else x.alive <- false;
    if more x due then x.ready <- x.s.make x.next
  in
  let states =
    Array.of_list
      (List.map
         (fun s ->
           let first = s.ledger.Ledger.first_id in
           { s; next = first; ready = s.make first; outstanding = 0; t_end = infinity;
             alive = true })
         streams)
  in
  (* the first stream after [i], [i] itself last, with a request to send *)
  let successor i t =
    let rec go k =
      if k > n then None
      else
        let j = (i + k) mod n in
        if more states.(j) t then Some j else go (k + 1)
    in
    go 1
  in
  let t0 = now () in
  for _ = 1 to states.(0).s.window do
    if more states.(0) t0 then send_one states.(0) t0
  done;
  let rec loop i =
    let x = states.(i) in
    if x.alive && x.outstanding > 0 then
      match Proc.recv x.s.conn with
      | None -> x.alive <- false
      | Some payload ->
        let at = now () in
        x.outstanding <- x.outstanding - 1;
        let next = successor i at in
        Option.iter (fun j -> send_one states.(j) at) next;
        x.s.settle ~at payload;
        loop (match next with Some j -> j | None -> i)
  in
  loop 0
