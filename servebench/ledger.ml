(* One entry per request sent: when it was due, when it went out, when
   and how it was answered.  Replies are parsed with the repo's own JSON
   parser and converged joint vectors re-checked by forward kinematics. *)

open Dadu_kinematics
module Json = Dadu_util.Json
module Vec3 = Dadu_linalg.Vec3

type outcome =
  | Pending  (** still unanswered when the run ended *)
  | Good  (** solved, converged and FK-verified *)
  | Unconverged  (** solved without convergence *)
  | Wrong  (** claimed converged but θ misses the target *)
  | Shed  (** [overloaded] *)
  | Refused  (** [rejected], [faulted] or [error] *)

type entry = {
  id : int;
  due : float;  (** scheduled send time, or when the slot freed up *)
  target : Vec3.t;
  timed : bool;  (** inside the timed phase (not warm-up) *)
  mutable sent : float;
  mutable replied : float;
  mutable outcome : outcome;
  mutable faulted : bool;
  mutable iterations : int;
  mutable fallbacks : int;
  mutable cache_hit : bool;
}

type t = {
  first_id : int;
  mutable items : entry array;
  mutable len : int;
  lock : Mutex.t;
}

let create ~first_id = { first_id; items = [||]; len = 0; lock = Mutex.create () }

let add t ~due ~target ~timed =
  Mutex.lock t.lock;
  if t.len = Array.length t.items then begin
    let dummy = { id = -1; due = 0.; target; timed = false; sent = nan;
                  replied = nan; outcome = Pending; faulted = false;
                  iterations = 0; fallbacks = 0; cache_hit = false } in
    let bigger = Array.make (max 64 (2 * t.len)) dummy in
    Array.blit t.items 0 bigger 0 t.len;
    t.items <- bigger
  end;
  let e =
    { id = t.first_id + t.len; due; target; timed; sent = nan; replied = nan;
      outcome = Pending; faulted = false; iterations = 0; fallbacks = 0;
      cache_hit = false }
  in
  t.items.(t.len) <- e;
  t.len <- t.len + 1;
  Mutex.unlock t.lock;
  e

let find t id =
  Mutex.lock t.lock;
  let k = id - t.first_id in
  let e = if k >= 0 && k < t.len then Some t.items.(k) else None in
  Mutex.unlock t.lock;
  e

let entries t =
  Mutex.lock t.lock;
  let es = Array.sub t.items 0 t.len in
  Mutex.unlock t.lock;
  es

(* ---- replies ------------------------------------------------------------ *)

let int_member key json =
  Option.map int_of_float (Option.bind (Json.member key json) Json.to_float)

let str_member key json = Option.bind (Json.member key json) Json.to_str

let bool_member key json =
  match Json.member key json with Some (Json.Bool b) -> b | _ -> false

let theta_member json =
  match Option.bind (Json.member "theta" json) Json.to_list with
  | None -> None
  | Some xs ->
    let fs = List.filter_map Json.to_float xs in
    if List.length fs = List.length xs then Some (Array.of_list fs) else None

(* Parse one reply frame and settle the entry it answers; [None] when
   the frame does not parse or answers no request of this ledger (both
   are check failures). *)
let settle t ~chain ~scratch ~accuracy ~at payload =
  Checks.frame ();
  match Json.of_string payload with
  | Error msg ->
    Checks.fail "reply frame does not parse (%s): %s" msg (Checks.clip payload);
    None
  | Ok json ->
    (match Option.bind (int_member "id" json) (find t) with
    | None ->
      Checks.fail "reply answers no outstanding request: %s" (Checks.clip payload);
      None
    | Some e when not (Float.is_nan e.replied) ->
      Checks.fail "second reply for request %d: %s" e.id (Checks.clip payload);
      None
    | Some e ->
      e.replied <- at;
      (match str_member "reply" json with
      | Some "solved" ->
        e.iterations <- Option.value ~default:0 (int_member "iterations" json);
        e.fallbacks <- Option.value ~default:0 (int_member "fallbacks" json);
        e.cache_hit <- bool_member "cache_hit" json;
        if str_member "status" json <> Some "converged" then e.outcome <- Unconverged
        else begin
          match theta_member json with
          | Some theta when Array.length theta = Chain.dof chain ->
            let miss = Vec3.dist (Fk.position ~scratch chain theta) e.target in
            (* the server's own check uses the same tolerance; allow for
               the rounding of a different FK evaluation order *)
            if miss <= accuracy *. (1. +. 1e-9) then begin
              Checks.verified ();
              e.outcome <- Good
            end
            else begin
              Checks.fail "request %d: converged theta misses its target by %.6g m"
                e.id miss;
              e.outcome <- Wrong
            end
          | _ ->
            Checks.fail "request %d: converged reply without a %d-entry theta" e.id
              (Chain.dof chain);
            e.outcome <- Wrong
        end
      | Some "overloaded" -> e.outcome <- Shed
      | Some "faulted" ->
        e.faulted <- true;
        e.outcome <- Refused
      | _ -> e.outcome <- Refused);
      Some e)
