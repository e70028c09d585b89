open Dadu_linalg
open Dadu_kinematics

(* Recent committed replies, kept verbatim for duplicate replay: a
   reconnecting client that resends an already-committed waypoint gets
   the original bytes back instead of a second solve — the at-most-once
   half of the reconnect contract (DESIGN.md §16).  Bounded: entries
   older than [ring_capacity] commits are evicted; a resend that far
   behind is answered with a typed [stale] error by the server. *)
let ring_capacity = 128

type t = {
  name : string;
  chain : Chain.t;
  mutable slot : Vec.t option;
      (* last converged joint vector; the temporal warm start *)
  mutable waypoints : int;
  mutable warm : int;
  mutable seq : int; (* next waypoint ordinal (enqueue-side counter) *)
  replies : (int, string) Hashtbl.t; (* ordinal -> committed reply bytes *)
}

let create ~name ~chain =
  {
    name;
    chain;
    slot = None;
    waypoints = 0;
    warm = 0;
    seq = 0;
    replies = Hashtbl.create 16;
  }

(* Rebuild a session from journal replay: [committed] waypoints are
   already durable, so the ordinal counter resumes right after them and
   the slot holds the last converged configuration — the state an
   uninterrupted server would hold with all in-flight work excluded. *)
let restore ~name ~chain ~committed ~warm ~slot =
  let t = create ~name ~chain in
  t.seq <- committed;
  t.waypoints <- committed;
  t.warm <- warm;
  (match slot with
  | None -> ()
  | Some theta ->
    let dst = Array.make (Array.length theta) 0. in
    Array.blit theta 0 dst 0 (Array.length theta);
    t.slot <- Some dst);
  t

let name t = t.name

let chain t = t.chain

let waypoints t = t.waypoints

let warm_hits t = t.warm

let next_ordinal t =
  let o = t.seq in
  t.seq <- t.seq + 1;
  o

let accepted t = t.seq

(* The slot is only offered to the chain that filled it: a mismatched
   fingerprint (different robot under the same session object) is treated
   as cold rather than risking a wrong-DOF blit. *)
let seed t ~chain_fp = if chain_fp = Chain.fingerprint t.chain then t.slot else None

let store t ~chain_fp theta =
  if chain_fp = Chain.fingerprint t.chain then begin
    let dst =
      match t.slot with
      | Some dst when Array.length dst = Array.length theta -> dst
      | Some _ | None ->
        let dst = Array.make (Array.length theta) 0. in
        t.slot <- Some dst;
        dst
    in
    Array.blit theta 0 dst 0 (Array.length theta)
  end

let record t ~warm =
  t.waypoints <- t.waypoints + 1;
  if warm then t.warm <- t.warm + 1

let remember_reply t ~ordinal payload =
  Hashtbl.replace t.replies ordinal payload;
  let evict = ordinal - ring_capacity in
  if evict >= 0 then Hashtbl.remove t.replies evict

let recall_reply t ~ordinal = Hashtbl.find_opt t.replies ordinal

let clear t = t.slot <- None
