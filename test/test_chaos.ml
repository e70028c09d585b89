(* Chaos suite: the serving layer under randomized fault injection.

   Every case arms a randomly generated fault plan (crashing, lying, and
   NaN-scribbling solver tiers) against a service configured with all the
   resilience machinery on — divergence guard, per-solver circuit
   breakers, perturbed-seed retries — and checks the contracts that must
   hold no matter what the faults do:

   - every request gets a well-formed reply: [Solved] with a finite θ
     and error, or — when every attempt was NaN-poisoned — the typed
     non-finite [Faulted]; crashes are contained, no other fault
     escapes;
   - a [Converged] status is never a lie: the true FK error, recomputed
     here, is within the configured accuracy and θ is finite;
   - with a fixed fault seed, replies are byte-identical across domain
     pool sizes 1, 2 and 4 (injection is forked per request index, so
     scheduling cannot change what faults fire).

   The master seed folds into every derived fault/problem seed and can be
   pinned from the environment: [DADU_CHAOS_SEED=12345 dune exec
   test/test_chaos.exe] — CI runs the suite under several seeds. *)

open Dadu_core
open Dadu_service
module Rng = Dadu_util.Rng
module Fault = Dadu_util.Fault
module Pool = Dadu_util.Domain_pool

let master_seed =
  match Sys.getenv_opt "DADU_CHAOS_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "DADU_CHAOS_SEED=%S is not an integer" s))
  | None -> 0xC1A05

let qcheck = QCheck_alcotest.to_alcotest

let eval12 = Dadu_kinematics.Robots.eval_chain ~dof:12

let random_problems ~seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Ik.random_problem rng eval12)

(* Fault sites the fallback chain consults, one per failure mode: a tier
   that raises, a tier that corrupts its result buffer, a tier that
   claims success it did not earn. *)
let sites = [| "solver-raise"; "solver-nan"; "solver-lie" |]

let plan_of_seed seed =
  let rng = Rng.create (Hashtbl.hash (master_seed, seed, "plan")) in
  let rule _ =
    let site = sites.(Rng.int rng (Array.length sites)) in
    let trigger =
      match Rng.int rng 5 with
      | 0 -> Fault.Always
      | 1 -> Fault.First (1 + Rng.int rng 3)
      | 2 -> Fault.Every (1 + Rng.int rng 4)
      | 3 -> Fault.From_iteration (Rng.int rng 4)
      | _ -> Fault.Prob (0.1 +. Rng.float rng 0.8)
    in
    { Fault.site; trigger; arg = float_of_int (Rng.int rng 64) }
  in
  List.init (1 + Rng.int rng 3) rule

(* Everything on: guard, breakers, one perturbed-seed retry.  Budgets are
   kept small so 200 cases stay fast — the contracts under test don't
   depend on convergence rates. *)
let chaos_config ~fault =
  {
    Service.default_config with
    Service.solvers = [ Fallback.Quick_ik; Fallback.Dls ];
    speculations = 16;
    max_iterations = 400;
    chunk = 4;
    guard = Some Ik.default_guard;
    fault;
    breaker = Some { Breaker.threshold = 2; cooldown = 8 };
    retries = 1;
    retry_scale = 0.1;
  }

let strip_latency = function
  | Service.Solved
      {
        result;
        solver;
        fallbacks;
        cache_hit;
        session_hit;
        deadline_exceeded;
        breaker_skips;
        retries;
        retry_converged;
        trail;
        latency_s = _;
      } ->
    `Solved
      ( result,
        solver,
        fallbacks,
        cache_hit,
        session_hit,
        deadline_exceeded,
        breaker_skips,
        retries,
        retry_converged,
        trail )
  | Service.Rejected invalid -> `Rejected invalid
  | Service.Faulted msg -> `Faulted msg

let solve_under_faults ?pool ~case n =
  let plan = plan_of_seed case in
  let fault = Fault.arm ~seed:(Hashtbl.hash (master_seed, case, "arm")) plan in
  let config = chaos_config ~fault in
  let s = Service.create ?pool ~config () in
  let problems = random_problems ~seed:(Hashtbl.hash (master_seed, case, "prob")) n in
  (config, problems, Service.solve_batch s problems)

(* Property 1: whatever the plan, every reply is a well-formed [Solved]
   with finite numbers (or the typed non-finite fault), and [Converged]
   is FK-confirmed. *)
let well_formed case =
  let n = 5 in
  let config, problems, replies = solve_under_faults ~case n in
  if Array.length replies <> n then
    QCheck.Test.fail_reportf "case %d: %d replies for %d requests" case
      (Array.length replies) n;
  Array.iteri
    (fun i reply ->
      match reply with
      | Service.Rejected _ ->
        QCheck.Test.fail_reportf "case %d req %d: valid problem rejected" case i
      | Service.Faulted msg ->
        if not (String.starts_with ~prefix:"non-finite result from " msg) then
          QCheck.Test.fail_reportf
            "case %d req %d: crash escaped containment: %s" case i msg
      | Service.Solved
          { result; trail; retries; breaker_skips; latency_s; fallbacks; _ } ->
        if trail = [] then
          QCheck.Test.fail_reportf "case %d req %d: empty trail" case i;
        if not (Fallback.finite result) then
          QCheck.Test.fail_reportf "case %d req %d: non-finite solved reply"
            case i;
        if retries < 0 || retries > config.Service.retries then
          QCheck.Test.fail_reportf "case %d req %d: retries %d out of range" case
            i retries;
        if breaker_skips < 0 || breaker_skips > List.length config.Service.solvers
        then
          QCheck.Test.fail_reportf "case %d req %d: breaker_skips %d out of range"
            case i breaker_skips;
        if fallbacks < 0 then
          QCheck.Test.fail_reportf "case %d req %d: negative fallbacks" case i;
        if latency_s < 0. then
          QCheck.Test.fail_reportf "case %d req %d: negative latency" case i;
        if result.Ik.status = Ik.Converged then begin
          if not (Array.for_all Float.is_finite result.Ik.theta) then
            QCheck.Test.fail_reportf
              "case %d req %d: Converged with non-finite theta" case i;
          let p = problems.(i) in
          let actual = Ik.error_of p.Ik.chain p.Ik.target result.Ik.theta in
          if not (actual <= config.Service.accuracy) then
            QCheck.Test.fail_reportf
              "case %d req %d: Converged but true FK error %.3e > %.3e" case i
              actual config.Service.accuracy
        end)
    replies;
  true

(* Property 2: a fixed fault seed replays byte-identically whatever the
   pool size — [compare] (not [=]) so NaN fields compare equal. *)
let pool_invariant case =
  let n = 6 in
  let run pool_size =
    if pool_size <= 1 then
      let _, _, replies = solve_under_faults ~case n in
      Array.map strip_latency replies
    else
      let pool = Pool.create pool_size in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let _, _, replies = solve_under_faults ~pool ~case n in
      Array.map strip_latency replies
  in
  let solo = run 1 in
  List.for_all
    (fun size ->
      let got = run size in
      if compare solo got <> 0 then
        QCheck.Test.fail_reportf
          "case %d: replies differ between pool sizes 1 and %d" case size
      else true)
    [ 2; 4 ]

let test_well_formed =
  QCheck.Test.make ~name:"chaos: replies well-formed, Converged never lies"
    ~count:120
    QCheck.(make Gen.(int_bound 1_000_000))
    well_formed

let test_pool_invariant =
  QCheck.Test.make ~name:"chaos: fixed fault seed is pool-size invariant"
    ~count:80
    QCheck.(make Gen.(int_bound 1_000_000))
    pool_invariant

let () =
  Alcotest.run "dadu_chaos"
    [ ("chaos", [ qcheck test_well_formed; qcheck test_pool_invariant ]) ]
