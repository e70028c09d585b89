(* Seeded request generators.  The server receives only what these make;
   the same seed gives the same request stream. *)

open Dadu_kinematics
module Rng = Dadu_util.Rng
module Vec3 = Dadu_linalg.Vec3
module Pf = Dadu_service.Problem_file

type request = {
  payload : string;
  target : Vec3.t;
  theta0 : float array option;  (** one-shot solves only *)
}

let spec dof = Printf.sprintf "eval:%d" dof

let solve_request ~robot ~id ~target ~theta0 =
  let open Vec3 in
  {
    payload =
      Dadu_service.Client.payload_of_op id
        (Pf.Solve
           {
             robot;
             x = target.x;
             y = target.y;
             z = target.z;
             theta0 = Some (Array.to_list theta0);
             deadline_s = None;
           });
    target;
    theta0 = Some theta0;
  }

(* ---- track: the session-dof* cyclic trajectory ------------------------- *)

(* The kernel bench's session generator (a joint-space sine sweep around
   a well-conditioned posture, FK'd to Cartesian waypoints ~1.5 cm
   apart), with the base posture, sweep direction and phase drawn per
   session from the seed. *)
type trajectory = {
  chain : Chain.t;
  scratch : Fk.scratch;
  base : float array;
  dir : float array;
  amp : float;
  phase : float;
}

let omega = 0.35

let trajectory ~seed ~session chain =
  let dof = Chain.dof chain in
  let rng = Rng.create ((seed * 7919) + session) in
  let base = Array.init dof (fun _ -> 0.1 +. Rng.uniform rng (-0.03) 0.03) in
  let dir =
    Array.init dof (fun i ->
        (if i land 1 = 0 then 1.0 else -0.7) *. Rng.uniform rng 0.8 1.2)
  in
  let scratch = Fk.make_scratch ~dof () in
  let p0 = Fk.position ~scratch chain base in
  let p1 =
    Fk.position ~scratch chain (Array.mapi (fun i b -> b +. (0.01 *. dir.(i))) base)
  in
  let gain = Vec3.dist p0 p1 /. 0.01 in
  {
    chain;
    scratch;
    base;
    dir;
    amp = 0.015 /. Float.max 1e-9 (gain *. omega);
    phase = Rng.uniform rng 0. (2. *. Float.pi);
  }

let waypoint tr ~session ~id =
  let s = tr.amp *. sin ((omega *. float_of_int id) +. tr.phase) in
  let target =
    Fk.position ~scratch:tr.scratch tr.chain
      (Array.mapi (fun i b -> b +. (s *. tr.dir.(i))) tr.base)
  in
  let open Vec3 in
  {
    payload =
      Dadu_service.Client.payload_of_op id
        (Pf.Waypoint { session; x = target.x; y = target.y; z = target.z });
    target;
    theta0 = None;
  }

(* ---- cold: fresh FK-sampled targets with random starts ---------------- *)

type cold = { cchain : Chain.t; crobot : string; crng : Rng.t }

let cold ~seed chain = { cchain = chain; crobot = spec (Chain.dof chain); crng = Rng.create seed }

(* Call in id order. *)
let cold_request c ~id =
  let p = Dadu_core.Ik.random_problem c.crng c.cchain in
  solve_request ~robot:c.crobot ~id ~target:p.Dadu_core.Ik.target
    ~theta0:p.Dadu_core.Ik.theta0

(* ---- batch: every target revisited once, with a new random start ------- *)

(* Even requests bring new FK-sampled targets; odd request [2k+1]
   revisits the target of request [2(k - lag)] with a fresh random
   theta0, so every batch mixes first visits and revisits half and half.
   A revisit trails its first visit by [2 lag + 1] requests, more than
   the window, so the first visit has committed to the seed cache before
   the revisit is sent.  (The first [lag] odd requests, with nothing to
   revisit yet, bring new targets that are never revisited.) *)
type batch = {
  bchain : Chain.t;
  brobot : string;
  brng : Rng.t;
  lag : int;
  pending : (int, Vec3.t) Hashtbl.t;  (** targets awaiting their revisit *)
}

let batch ~seed ~lag chain =
  { bchain = chain; brobot = spec (Chain.dof chain); brng = Rng.create seed; lag;
    pending = Hashtbl.create (2 * lag) }

(* Call in id order. *)
let batch_request b ~id =
  let k = id / 2 in
  let target =
    if id land 1 = 0 then begin
      let t = Target.reachable b.brng b.bchain in
      Hashtbl.replace b.pending k t;
      t
    end
    else
      match Hashtbl.find_opt b.pending (k - b.lag) with
      | Some t ->
        Hashtbl.remove b.pending (k - b.lag);
        t
      | None -> Target.reachable b.brng b.bchain
  in
  solve_request ~robot:b.brobot ~id ~target
    ~theta0:(Target.random_config b.brng b.bchain)
