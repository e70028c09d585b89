(* End-to-end numbers from the ledgers of one timed phase.

   Each gated number is taken in each of [windows] equal slices of the
   timed phase (by due time), and of those slice values the third best
   is reported: the lower quartile of the slice latencies, the upper
   quartile of the slice goodputs and SLO shares.  Other guests on a
   shared host only ever take time away, in bursts of seconds, so the
   quieter slices measure the program more repeatably than all of
   them; the third best, not the best, keeps one lucky slice from
   deciding.  The printed-only numbers (p99, failed share, lag, drift)
   are taken over the whole phase. *)

let windows = 10

(* Nearest-rank percentile of a sorted array, [q] in (0, 1]. *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  pct a 0.5

type t = {
  attempted : int;
  good : int;
  failed : int;  (** attempted and not answered converged and verified *)
  answered : int;  (** latency samples: replies other than sheds *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  goodput_rps : float;
  slo_share : float;
  failed_share : float;
  lag_p99_ms : float;  (** sent - due *)
  drift : float;  (** p50 of the last quarter over p50 of the first *)
}

let latency_ms (e : Ledger.entry) = (e.replied -. e.due) *. 1e3

let answered (e : Ledger.entry) =
  match e.outcome with
  | Ledger.Pending | Ledger.Shed -> false
  | Ledger.Good | Ledger.Unconverged | Ledger.Wrong | Ledger.Refused -> true

let sorted_latencies es =
  let a = Array.of_list (List.map latency_ms (List.filter answered es)) in
  Array.sort compare a;
  a

(* The timed requests of every ledger, in due order.  A run whose warm-up
   never finished has no timed phase: then everything it sent counts. *)
let timed ledgers =
  let all = List.concat_map (fun l -> Array.to_list (Ledger.entries l)) ledgers in
  let t = List.filter (fun (e : Ledger.entry) -> e.timed) all in
  List.sort
    (fun (a : Ledger.entry) b -> compare a.due b.due)
    (if t = [] then all else t)

let good (e : Ledger.entry) = e.outcome = Ledger.Good

let in_slo ~limit_ms e =
  good e && match limit_ms with None -> true | Some l -> latency_ms e <= l

let share n d = if d = 0 then nan else float_of_int n /. float_of_int d
let count f es = List.length (List.filter f es)

let of_ledgers ~seconds ~limit_ms ledgers =
  let es = timed ledgers in
  let attempted = List.length es in
  let ngood = count good es in
  let lat = sorted_latencies es in
  let width = seconds /. float_of_int windows in
  let slices =
    match es with
    | [] -> []
    | first :: _ ->
      let slice (e : Ledger.entry) =
        min (windows - 1) (int_of_float ((e.due -. first.due) /. width))
      in
      List.filter (( <> ) [])
        (List.init windows (fun k -> List.filter (fun e -> slice e = k) es))
  in
  let sorted_slices f =
    let a = Array.of_list (List.map f slices) in
    Array.sort compare a;
    a
  in
  let lower f = pct (sorted_slices f) 0.25 and upper f = pct (sorted_slices f) 0.75 in
  let lags =
    Array.of_list
      (List.filter_map
         (fun (e : Ledger.entry) ->
           if Float.is_nan e.sent then None else Some ((e.sent -. e.due) *. 1e3))
         es)
  in
  Array.sort compare lags;
  let quarter = attempted / 4 in
  let drift =
    if quarter < 8 then nan
    else
      let part from =
        sorted_latencies (List.filteri (fun i _ -> i >= from && i < from + quarter) es)
      in
      pct (part (attempted - quarter)) 0.5 /. pct (part 0) 0.5
  in
  {
    attempted;
    good = ngood;
    failed = attempted - ngood;
    answered = Array.length lat;
    p50_ms = lower (fun w -> pct (sorted_latencies w) 0.5);
    p90_ms = lower (fun w -> pct (sorted_latencies w) 0.9);
    p99_ms = pct lat 0.99;
    goodput_rps = upper (fun w -> float_of_int (count good w) /. width);
    slo_share = upper (fun w -> share (count (in_slo ~limit_ms) w) (List.length w));
    failed_share = share (attempted - ngood) attempted;
    lag_p99_ms = pct lags 0.99;
    drift;
  }
