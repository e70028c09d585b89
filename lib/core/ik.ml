open Dadu_linalg
open Dadu_kinematics

type problem = { chain : Chain.t; target : Vec3.t; theta0 : Vec.t }

let problem ~chain ~target ~theta0 =
  Chain.check_config chain theta0;
  { chain; target; theta0 = Vec.copy theta0 }

let random_problem rng chain =
  let target = Target.reachable rng chain in
  let theta0 = Target.random_config rng chain in
  { chain; target; theta0 }

type invalid =
  | Dof_mismatch of { expected : int; got : int }
  | Nonfinite_target
  | Nonfinite_theta0

let validate p =
  let expected = Chain.dof p.chain and got = Vec.dim p.theta0 in
  if got <> expected then Error (Dof_mismatch { expected; got })
  else if
    not
      (Float.is_finite p.target.Vec3.x
      && Float.is_finite p.target.Vec3.y
      && Float.is_finite p.target.Vec3.z)
  then Error Nonfinite_target
  else if not (Array.for_all Float.is_finite p.theta0) then
    Error Nonfinite_theta0
  else Ok ()

let pp_invalid ppf = function
  | Dof_mismatch { expected; got } ->
    Format.fprintf ppf "theta0 has %d entries but the chain has %d DOF" got
      expected
  | Nonfinite_target -> Format.pp_print_string ppf "target has a non-finite coordinate"
  | Nonfinite_theta0 -> Format.pp_print_string ppf "theta0 has a non-finite entry"

type guard = { explode_factor : float; explode_patience : int }

let default_guard = { explode_factor = 1e3; explode_patience = 10 }

type config = {
  accuracy : float;
  max_iterations : int;
  stall_iterations : int option;
  guard : guard option;
}

let default_config =
  { accuracy = 1e-2; max_iterations = 10_000; stall_iterations = None; guard = None }

type status = Converged | Max_iterations | Stalled | Diverged

type result = {
  theta : Vec.t;
  error : float;
  iterations : int;
  speculations : int;
  status : status;
  svd_sweeps : int;
}

let work r = r.speculations * r.iterations

let error_of chain target theta = Vec3.dist target (Fk.position chain theta)

let status_name = function
  | Converged -> "converged"
  | Max_iterations -> "max-iterations"
  | Stalled -> "stalled"
  | Diverged -> "diverged"

let pp_status ppf s = Format.pp_print_string ppf (status_name s)

let pp_result ppf r =
  Format.fprintf ppf "%a in %d iters (err %.3g, %d specs)" pp_status r.status
    r.iterations r.error r.speculations

type solver = ?config:config -> problem -> result
