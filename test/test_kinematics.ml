(* Unit and property tests for Dadu_kinematics: Joint, Dh, Chain, Fk,
   Jacobian, Robots, Target, Traj. *)

open Dadu_linalg
open Dadu_kinematics
module Rng = Dadu_util.Rng

let qcheck = QCheck_alcotest.to_alcotest
let check_float = Alcotest.(check (float 1e-9))
let pi = Float.pi

(* ---- Joint ---- *)

let test_joint_clamp () =
  let j = Joint.revolute ~lower:(-1.) ~upper:1. () in
  check_float "below" (-1.) (Joint.clamp j (-5.));
  check_float "inside" 0.3 (Joint.clamp j 0.3);
  check_float "above" 1. (Joint.clamp j 2.)

let test_joint_inside () =
  let j = Joint.prismatic ~lower:0. ~upper:0.5 () in
  Alcotest.(check bool) "inside" true (Joint.inside j 0.25);
  Alcotest.(check bool) "outside" false (Joint.inside j 0.75)

let test_joint_unbounded () =
  Alcotest.(check bool) "unbounded" true (Joint.unbounded (Joint.revolute ()));
  Alcotest.(check bool) "bounded" false
    (Joint.unbounded (Joint.revolute ~lower:(-1.) ~upper:1. ()))

let test_joint_span () =
  check_float "span" 2. (Joint.span (Joint.revolute ~lower:(-1.) ~upper:1. ()));
  Alcotest.(check bool) "unbounded span" true
    (Joint.span (Joint.revolute ()) = infinity)

let test_joint_bad_limits () =
  Alcotest.check_raises "lower > upper"
    (Invalid_argument "Joint: lower limit exceeds upper limit") (fun () ->
      ignore (Joint.revolute ~lower:1. ~upper:(-1.) ()))

(* ---- Dh ---- *)

let test_dh_identity () =
  let t = Dh.transform (Dh.make ()) Joint.Revolute 0. in
  Alcotest.(check bool) "identity at zero" true (Mat4.approx_equal t (Mat4.identity ()))

let test_dh_revolute_variable () =
  (* revolute joint value rotates about z *)
  let t = Dh.transform (Dh.make ()) Joint.Revolute (pi /. 2.) in
  Alcotest.(check bool) "pure z-rotation" true
    (Mat4.approx_equal ~tol:1e-12 t (Mat4.rot_z (pi /. 2.)))

let test_dh_prismatic_variable () =
  let t = Dh.transform (Dh.make ()) Joint.Prismatic 0.7 in
  Alcotest.(check bool) "pure z-translation" true
    (Mat4.approx_equal ~tol:1e-12 t (Mat4.translation (Vec3.make 0. 0. 0.7)))

let test_dh_link_length () =
  let t = Dh.transform (Dh.make ~a:2. ()) Joint.Revolute 0. in
  Alcotest.(check bool) "x offset" true
    (Vec3.approx_equal (Mat4.position t) (Vec3.make 2. 0. 0.))

let test_dh_transform_into_matches () =
  let dh = Dh.make ~a:0.5 ~alpha:0.3 ~d:0.2 ~theta:0.1 () in
  let dst = Mat4.identity () in
  Dh.transform_into ~dst dh Joint.Revolute 0.8;
  Alcotest.(check bool) "into = pure" true
    (Mat4.approx_equal dst (Dh.transform dh Joint.Revolute 0.8))

let test_dh_rigid =
  QCheck.Test.make ~name:"DH transforms are rigid" ~count:200
    QCheck.(
      quad (float_range (-2.) 2.) (float_range (-3.) 3.) (float_range (-2.) 2.)
        (float_range (-3.) 3.))
    (fun (a, alpha, d, q) ->
      let t = Dh.transform (Dh.make ~a ~alpha ~d ()) Joint.Revolute q in
      Mat4.is_rigid ~tol:1e-9 t)

(* ---- Chain ---- *)

let two_link =
  Chain.make ~name:"two-link"
    [|
      { Chain.name = "j1"; joint = Joint.revolute (); dh = Dh.make ~a:1. () };
      { Chain.name = "j2"; joint = Joint.revolute (); dh = Dh.make ~a:1. () };
    |]

let test_chain_dof () = Alcotest.(check int) "dof" 2 (Chain.dof two_link)

let test_chain_empty () =
  Alcotest.check_raises "empty rejected" (Invalid_argument "Chain.make: no links")
    (fun () -> ignore (Chain.make [||]))

let test_chain_reach () =
  check_float "reach" 2. (Chain.reach two_link);
  let c = Robots.planar ~dof:5 ~reach:3. () in
  Alcotest.(check (float 1e-9)) "planar reach" 3. (Chain.reach c)

let test_chain_clamp_config () =
  let c =
    Chain.make
      [|
        {
          Chain.name = "j";
          joint = Joint.revolute ~lower:(-0.5) ~upper:0.5 ();
          dh = Dh.make ~a:1. ();
        };
      |]
  in
  Alcotest.(check (array (float 1e-12))) "clamped" [| 0.5 |] (Chain.clamp_config c [| 2. |])

let test_chain_check_config () =
  Alcotest.(check bool) "raises on wrong length" true
    (try
       Chain.check_config two_link [| 0. |];
       false
     with Invalid_argument _ -> true)

let test_chain_base_tool_copied () =
  let base = Mat4.translation (Vec3.make 1. 0. 0.) in
  let c =
    Chain.make ~base
      [| { Chain.name = "j"; joint = Joint.revolute (); dh = Dh.make ~a:1. () } |]
  in
  Mat4.set base 0 3 99.;
  Alcotest.(check bool) "base copied at construction" true
    (Vec3.approx_equal (Mat4.position (Chain.base c)) (Vec3.make 1. 0. 0.))

(* The fingerprint is stored in DADUPLIB posture libraries and DADUJRNL
   session journals, so its value for a given chain must never change. *)
let test_chain_fingerprint_pinned () =
  List.iter
    (fun (dof, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "eval:%d" dof)
        expected
        (Chain.fingerprint (Robots.eval_chain ~dof)))
    [
      (12, 3220146773502623081);
      (30, 3201358522906459403);
      (100, 2256562390209365953);
    ]

(* ---- Fk ---- *)

let test_fk_two_link_zero () =
  Alcotest.(check bool) "straight" true
    (Vec3.approx_equal ~tol:1e-12 (Fk.position two_link [| 0.; 0. |]) (Vec3.make 2. 0. 0.))

let test_fk_two_link_elbow () =
  (* q1 = 90deg: first link along y; q2 = -90deg: second link back along x *)
  let p = Fk.position two_link [| pi /. 2.; -.pi /. 2. |] in
  Alcotest.(check bool) "elbow" true (Vec3.approx_equal ~tol:1e-12 p (Vec3.make 1. 1. 0.))

let test_fk_planar_angle_sum () =
  (* for a planar chain the end effector is the sum of link vectors at
     cumulative angles *)
  let c = Robots.planar ~dof:4 ~reach:4. () in
  let q = [| 0.3; -0.5; 1.1; 0.2 |] in
  let expected =
    let cum = ref 0. and x = ref 0. and y = ref 0. in
    Array.iter
      (fun qi ->
        cum := !cum +. qi;
        x := !x +. cos !cum;
        y := !y +. sin !cum)
      q;
    Vec3.make !x !y 0.
  in
  Alcotest.(check bool) "angle-sum identity" true
    (Vec3.approx_equal ~tol:1e-9 (Fk.position c q) expected)

let test_fk_frames_shape () =
  let frames = Fk.frames two_link [| 0.1; 0.2 |] in
  Alcotest.(check int) "dof+1 frames" 3 (Array.length frames);
  Alcotest.(check bool) "last = position" true
    (Vec3.approx_equal
       (Mat4.position frames.(2))
       (Fk.position two_link [| 0.1; 0.2 |]))

let test_fk_pose_matches_position () =
  let q = [| 0.4; -0.9 |] in
  Alcotest.(check bool) "pose position" true
    (Vec3.approx_equal (Mat4.position (Fk.pose two_link q)) (Fk.position two_link q))

let test_fk_scratch_equivalence () =
  let scratch = Fk.make_scratch () in
  let q = [| 0.8; 0.3 |] in
  Alcotest.(check bool) "scratch = default" true
    (Vec3.approx_equal (Fk.position ~scratch two_link q) (Fk.position two_link q))

let test_fk_tool () =
  let tool = Mat4.translation (Vec3.make 0. 0. 0.5) in
  let c =
    Chain.make ~tool
      [| { Chain.name = "j"; joint = Joint.revolute (); dh = Dh.make ~a:1. () } |]
  in
  Alcotest.(check bool) "tool offset applied" true
    (Vec3.approx_equal ~tol:1e-12 (Fk.position c [| 0. |]) (Vec3.make 1. 0. 0.5))

let test_fk_prismatic () =
  let c = Robots.scara () in
  let q0 = [| 0.; 0.; 0.; 0. |] in
  let q1 = [| 0.; 0.; 0.1; 0. |] in
  let p0 = Fk.position c q0 and p1 = Fk.position c q1 in
  Alcotest.(check (float 1e-9)) "quill moves 0.1 along its axis" 0.1 (Vec3.dist p0 p1)

let seeded_config rng chain = Target.random_config rng chain

let test_fk_within_reach =
  QCheck.Test.make ~name:"FK position within conservative reach" ~count:200
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let dof = 2 + Rng.int rng 10 in
      let chain = Robots.random rng ~dof ~reach:2.0 () in
      let q = seeded_config rng chain in
      Vec3.norm (Fk.position chain q) <= Chain.reach chain +. 1e-9)

let test_fk_pose_rigid =
  QCheck.Test.make ~name:"FK pose is a rigid transform" ~count:200
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let dof = 2 + Rng.int rng 10 in
      let chain = Robots.random rng ~dof ~reach:2.0 () in
      let q = seeded_config rng chain in
      Mat4.is_rigid ~tol:1e-8 (Fk.pose chain q))

let test_fk_flops_positive () =
  Alcotest.(check bool) "monotone" true
    (Fk.flops_per_position 100 > Fk.flops_per_position 12
    && Fk.flops_per_position 1 > 0)

(* ---- Jacobian ---- *)

let test_jacobian_matches_numerical =
  QCheck.Test.make ~name:"analytic Jacobian = finite differences" ~count:100
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let dof = 2 + Rng.int rng 12 in
      let chain = Robots.random rng ~dof ~reach:2.0 () in
      let q = seeded_config rng chain in
      let analytic = Jacobian.position_jacobian chain q in
      let numerical = Jacobian.numerical_position_jacobian chain q in
      Mat.approx_equal ~tol:1e-5 analytic numerical)

(* Independent oracle: central finite differences of [Fk.position] itself,
   computed here rather than via [Jacobian.numerical_position_jacobian], so a
   shared bug in the library's differencing code cannot mask an error. *)
let central_difference_jacobian chain q =
  let dof = Chain.dof chain in
  let h = 1e-6 in
  Mat.init 3 dof (fun row col ->
      let shifted delta =
        let q' = Array.copy q in
        q'.(col) <- q'.(col) +. delta;
        Fk.position chain q'
      in
      let plus = shifted h and minus = shifted (-.h) in
      let d =
        match row with
        | 0 -> plus.Vec3.x -. minus.Vec3.x
        | 1 -> plus.Vec3.y -. minus.Vec3.y
        | _ -> plus.Vec3.z -. minus.Vec3.z
      in
      d /. (2. *. h))

let test_jacobian_matches_central_fd =
  QCheck.Test.make
    ~name:"analytic Jacobian columns = central differences of FK (3-40 DOF)"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dof = 3 + Rng.int rng 38 in
      let chain = Robots.random rng ~dof ~reach:(0.2 *. float_of_int dof) () in
      let q = seeded_config rng chain in
      let analytic = Jacobian.position_jacobian chain q in
      let oracle = central_difference_jacobian chain q in
      (* column-by-column so a failure names the offending joint *)
      let ok = ref true in
      for col = 0 to dof - 1 do
        let err = ref 0. in
        for row = 0 to 2 do
          err :=
            Float.max !err
              (Float.abs (Mat.get analytic row col -. Mat.get oracle row col))
        done;
        if !err > 1e-4 *. Float.max 1. (Chain.reach chain) then ok := false
      done;
      !ok)

let test_jacobian_matches_numerical_prismatic () =
  let chain = Robots.scara () in
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let q = seeded_config rng chain in
    let analytic = Jacobian.position_jacobian chain q in
    let numerical = Jacobian.numerical_position_jacobian chain q in
    Alcotest.(check bool) "scara jacobian" true
      (Mat.approx_equal ~tol:1e-5 analytic numerical)
  done

let test_jacobian_planar_z_row_zero () =
  let chain = Robots.planar ~dof:6 ~reach:3. () in
  let rng = Rng.create 4 in
  let q = seeded_config rng chain in
  let j = Jacobian.position_jacobian chain q in
  for col = 0 to 5 do
    check_float "z row" 0. (Mat.get j 2 col)
  done

let test_full_jacobian_top_matches () =
  let chain = Robots.arm_7dof () in
  let rng = Rng.create 5 in
  let q = seeded_config rng chain in
  let jp = Jacobian.position_jacobian chain q in
  let jf = Jacobian.full_jacobian chain q in
  let ok = ref true in
  for i = 0 to 2 do
    for jcol = 0 to Chain.dof chain - 1 do
      if Float.abs (Mat.get jp i jcol -. Mat.get jf i jcol) > 1e-12 then ok := false
    done
  done;
  Alcotest.(check bool) "rows 0-2 equal" true !ok

let test_full_jacobian_angular_revolute () =
  let chain = two_link in
  let q = [| 0.2; 0.4 |] in
  let jf = Jacobian.full_jacobian chain q in
  let frames = Fk.frames chain q in
  for col = 0 to 1 do
    let z = Mat4.z_axis frames.(col) in
    Alcotest.(check bool) "angular = joint axis" true
      (Vec3.approx_equal ~tol:1e-12 z
         (Vec3.make (Mat.get jf 3 col) (Mat.get jf 4 col) (Mat.get jf 5 col)))
  done

let test_jacobian_of_frames_matches () =
  let chain = Robots.eval_chain ~dof:12 in
  let rng = Rng.create 6 in
  let q = seeded_config rng chain in
  let frames = Fk.frames chain q in
  Alcotest.(check bool) "frames variant equal" true
    (Mat.approx_equal
       (Jacobian.position_jacobian_of_frames chain frames)
       (Jacobian.position_jacobian chain q))

let test_jacobian_frame_count () =
  Alcotest.(check bool) "wrong frame count rejected" true
    (try
       ignore (Jacobian.position_jacobian_of_frames two_link [| Mat4.identity () |]);
       false
     with Invalid_argument _ -> true)

(* ---- Robots ---- *)

let test_robots_dofs () =
  Alcotest.(check (list int)) "eval dofs" [ 12; 25; 50; 75; 100 ] Robots.eval_dofs;
  Alcotest.(check int) "6dof" 6 (Chain.dof (Robots.arm_6dof ()));
  Alcotest.(check int) "7dof" 7 (Chain.dof (Robots.arm_7dof ()));
  Alcotest.(check int) "scara" 4 (Chain.dof (Robots.scara ()));
  Alcotest.(check int) "snake" 30 (Chain.dof (Robots.snake ~dof:30));
  Alcotest.(check int) "eval chain" 25 (Chain.dof (Robots.eval_chain ~dof:25))

let test_robots_eval_chain_link_length () =
  (* eval chains use 1 m links *)
  let c = Robots.eval_chain ~dof:50 in
  Alcotest.(check (float 1e-9)) "reach = dof meters" 50. (Chain.reach c)

let test_robots_scara_prismatic () =
  let c = Robots.scara () in
  let kinds = Array.map (fun l -> l.Chain.joint.Joint.kind) (Chain.links c) in
  Alcotest.(check bool) "has prismatic quill" true (Array.mem Joint.Prismatic kinds)

let test_robots_snake_limits () =
  let c = Robots.snake ~dof:10 in
  Array.iter
    (fun l ->
      Alcotest.(check bool) "bounded" false (Joint.unbounded l.Chain.joint))
    (Chain.links c)

let test_robots_random_deterministic () =
  let mk seed =
    let rng = Rng.create seed in
    Robots.random rng ~dof:8 ~reach:2. ()
  in
  let a = mk 5 and b = mk 5 in
  let q = Array.make 8 0.4 in
  Alcotest.(check bool) "same geometry" true
    (Vec3.approx_equal (Fk.position a q) (Fk.position b q))

let test_robots_invalid_dof () =
  Alcotest.(check bool) "dof 0 rejected" true
    (try
       ignore (Robots.spatial ~dof:0 ~reach:1. ());
       false
     with Invalid_argument _ -> true)

(* ---- Target ---- *)

let test_target_reachable =
  QCheck.Test.make ~name:"targets are within reach" ~count:200
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let chain = Robots.eval_chain ~dof:12 in
      let t = Target.reachable rng chain in
      Vec3.norm t <= Chain.reach chain +. 1e-9)

let test_target_config_within_limits () =
  let chain = Robots.snake ~dof:12 in
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    let q = Target.random_config rng chain in
    Alcotest.(check bool) "inside limits" true (Chain.config_inside chain q)
  done

let test_target_batch_size () =
  let rng = Rng.create 18 in
  Alcotest.(check int) "batch" 7
    (Array.length (Target.batch rng (Robots.eval_chain ~dof:12) 7))

let test_target_unreachable_outside () =
  let rng = Rng.create 19 in
  let chain = Robots.arm_6dof () in
  for _ = 1 to 20 do
    let t = Target.unreachable rng chain in
    Alcotest.(check bool) "outside workspace" true (Vec3.norm t > Chain.reach chain)
  done

let test_workspace_ellipsoid () =
  let chain = Robots.eval_chain ~dof:8 in
  let rng = Rng.create 75 in
  let q = Target.random_config rng chain in
  let axes = Workspace.ellipsoid chain q in
  Alcotest.(check int) "three axes" 3 (List.length axes);
  (* axes are orthonormal directions with descending lengths equal to the
     Jacobian's singular values *)
  let dirs = List.map fst axes and lens = List.map snd axes in
  List.iteri
    (fun i d ->
      Alcotest.(check (float 1e-7)) "unit direction" 1. (Vec3.norm d);
      List.iteri
        (fun j d' ->
          if i < j then
            Alcotest.(check (float 1e-6)) "orthogonal" 0. (Vec3.dot d d'))
        dirs)
    dirs;
  let svd = Svd.decompose (Jacobian.position_jacobian chain q) in
  List.iteri
    (fun k len ->
      Alcotest.(check bool) "length = singular value" true
        (Float.abs (len -. svd.Svd.sigma.(k)) < 1e-6 *. Float.max 1. len))
    lens;
  (match lens with
  | [ a; b; c ] ->
    Alcotest.(check bool) "descending" true (a >= b && b >= c)
  | _ -> Alcotest.fail "expected 3")

(* ---- Chain_format ---- *)

let demo_description = String.concat "\n" [
  "# demo";
  "chain demo-arm";
  "base translate 0 0 0.2";
  "joint shoulder revolute a=0.5 alpha=90deg limits=-170deg,170deg";
  "joint elbow revolute a=0.4";
  "joint quill prismatic limits=0,0.18";
  "tool translate 0 0 0.05";
]

let test_format_parse () =
  match Chain_format.parse demo_description with
  | Error msg -> Alcotest.fail msg
  | Ok chain ->
    Alcotest.(check string) "name" "demo-arm" (Chain.name chain);
    Alcotest.(check int) "dof" 3 (Chain.dof chain);
    let shoulder = Chain.link chain 0 in
    Alcotest.(check (float 1e-12)) "a" 0.5 shoulder.Chain.dh.Dh.a;
    Alcotest.(check (float 1e-9)) "alpha in radians" (pi /. 2.) shoulder.Chain.dh.Dh.alpha;
    Alcotest.(check (float 1e-9)) "limits in radians" (170. *. pi /. 180.)
      shoulder.Chain.joint.Joint.upper;
    Alcotest.(check bool) "quill prismatic" true
      ((Chain.link chain 2).Chain.joint.Joint.kind = Joint.Prismatic);
    Alcotest.(check bool) "base applied" true
      (Vec3.approx_equal ~tol:1e-12
         (Mat4.position (Chain.base chain))
         (Vec3.make 0. 0. 0.2))

let test_format_roundtrip () =
  List.iter
    (fun chain ->
      match Chain_format.parse (Chain_format.to_string chain) with
      | Error msg -> Alcotest.fail (Chain.name chain ^ ": " ^ msg)
      | Ok chain' ->
        Alcotest.(check int) "dof preserved" (Chain.dof chain) (Chain.dof chain');
        let rng = Rng.create 5 in
        for _ = 1 to 10 do
          let q = Target.random_config rng chain in
          Alcotest.(check bool) "identical FK" true
            (Vec3.approx_equal ~tol:1e-12 (Fk.position chain q) (Fk.position chain' q))
        done)
    [
      Robots.eval_chain ~dof:12;
      Robots.snake ~dof:10;
      Robots.scara ();
      Robots.arm_7dof ();
    ]

let test_format_errors () =
  let expect_error fragment description =
    match Chain_format.parse description with
    | Ok _ -> Alcotest.fail ("expected failure: " ^ fragment)
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" fragment msg)
        true
        (Astring.String.is_infix ~affix:fragment msg)
  in
  expect_error "no joints" "chain empty";
  expect_error "line 2" "chain x\njoint j1 floppy a=1";
  expect_error "unknown directive" "wat 3";
  expect_error "expected a number" "joint j revolute a=abc";
  expect_error "limits out of order" "joint j revolute limits=2,1";
  expect_error "unknown joint parameter" "joint j revolute blah=3"

let test_format_comments_and_blanks () =
  let src = "\n# only a comment\n\njoint j revolute a=1 # trailing comment\n\n" in
  match Chain_format.parse src with
  | Error msg -> Alcotest.fail msg
  | Ok chain -> Alcotest.(check int) "one joint" 1 (Chain.dof chain)

let test_format_parse_file () =
  let path = Filename.temp_file "dadu" ".robot" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc demo_description);
  let result = Chain_format.parse_file path in
  Sys.remove path;
  match result with
  | Ok chain -> Alcotest.(check int) "dof" 3 (Chain.dof chain)
  | Error msg -> Alcotest.fail msg

let test_format_missing_file () =
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Chain_format.parse_file "/nonexistent/robot.txt"))

(* ---- Workspace ---- *)

let test_workspace_manipulability_singular () =
  (* straightened planar arm: all joint axes aligned, J rank-deficient in
     the plane -> manipulability 0 *)
  let chain = Robots.planar ~dof:4 ~reach:4. () in
  Alcotest.(check (float 1e-9)) "singular at zero pose" 0.
    (Workspace.manipulability chain (Array.make 4 0.))

let test_workspace_manipulability_positive () =
  let chain = Robots.eval_chain ~dof:8 in
  let rng = Rng.create 71 in
  let q = Target.random_config rng chain in
  Alcotest.(check bool) "positive away from singularity" true
    (Workspace.manipulability chain q > 0.)

let test_workspace_condition_ge_one () =
  let chain = Robots.eval_chain ~dof:8 in
  let rng = Rng.create 72 in
  for _ = 1 to 20 do
    let q = Target.random_config rng chain in
    Alcotest.(check bool) "cond >= 1" true (Workspace.condition_number chain q >= 1.)
  done

let test_workspace_sample () =
  let chain = Robots.arm_6dof () in
  let rng = Rng.create 73 in
  let s = Workspace.sample ~samples:200 rng chain in
  Alcotest.(check int) "samples" 200 s.Workspace.samples;
  Alcotest.(check bool) "reach max within conservative bound" true
    (s.Workspace.reach_max <= Chain.reach chain +. 1e-9);
  Alcotest.(check bool) "median <= max" true
    (s.Workspace.reach_p50 <= s.Workspace.reach_max);
  Alcotest.(check bool) "bbox ordered" true
    (s.Workspace.extent_min.Vec3.x <= s.Workspace.extent_max.Vec3.x
    && s.Workspace.extent_min.Vec3.y <= s.Workspace.extent_max.Vec3.y
    && s.Workspace.extent_min.Vec3.z <= s.Workspace.extent_max.Vec3.z);
  Alcotest.(check bool) "singular fraction in [0,1]" true
    (s.Workspace.singular_fraction >= 0. && s.Workspace.singular_fraction <= 1.)

let test_workspace_low_twist_worse_conditioned () =
  (* the whole point of the 10-degree eval geometry: worse conditioning
     than the 90-degree spatial chain *)
  let rng1 = Rng.create 74 and rng2 = Rng.create 74 in
  let low = Workspace.sample ~samples:200 rng1 (Robots.eval_chain ~dof:25) in
  let high =
    Workspace.sample ~samples:200 rng2 (Robots.spatial ~dof:25 ~reach:25. ())
  in
  Alcotest.(check bool) "median condition number higher on eval chain" true
    (low.Workspace.condition.Dadu_util.Stats.p50
    > high.Workspace.condition.Dadu_util.Stats.p50)

(* ---- Obstacles ---- *)

let test_obstacle_point_segment () =
  let a = Vec3.zero and b = Vec3.make 2. 0. 0. in
  check_float "above middle" 1. (Obstacles.point_segment_distance (Vec3.make 1. 1. 0.) a b);
  check_float "beyond end" 1. (Obstacles.point_segment_distance (Vec3.make 3. 0. 0.) a b);
  check_float "before start" 2. (Obstacles.point_segment_distance (Vec3.make (-2.) 0. 0.) a b);
  check_float "degenerate segment" 5. (Obstacles.point_segment_distance (Vec3.make 0. 5. 0.) a a)

let test_obstacle_point_segment_symmetry =
  QCheck.Test.make ~name:"segment distance symmetric in endpoints" ~count:200
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let v () = Vec3.make (Rng.uniform rng (-2.) 2.) (Rng.uniform rng (-2.) 2.) (Rng.uniform rng (-2.) 2.) in
      let p = v () and a = v () and b = v () in
      Float.abs
        (Obstacles.point_segment_distance p a b
        -. Obstacles.point_segment_distance p b a)
      < 1e-9)

let test_obstacle_segment_clearance () =
  let s = Obstacles.sphere ~center:(Vec3.make 0. 1. 0.) ~radius:0.5 in
  check_float "clear" 0.5
    (Obstacles.segment_clearance Vec3.zero (Vec3.make 2. 0. 0.) s);
  Alcotest.(check bool) "penetrating is negative" true
    (Obstacles.segment_clearance Vec3.zero (Vec3.make 0. 2. 0.) s < 0.)

let test_obstacle_chain_clearance () =
  (* straight planar chain along x; sphere above it *)
  let chain = Robots.planar ~dof:4 ~reach:2. () in
  let q = Array.make 4 0. in
  let scene = [ Obstacles.sphere ~center:(Vec3.make 1. 0.8 0.) ~radius:0.3 ] in
  check_float "clearance" 0.5 (Obstacles.clearance scene chain q);
  Alcotest.(check bool) "not penetrating" false (Obstacles.penetrates scene chain q);
  let through = [ Obstacles.sphere ~center:(Vec3.make 1. 0. 0.) ~radius:0.2 ] in
  Alcotest.(check bool) "chain through sphere penetrates" true
    (Obstacles.penetrates through chain q)

let test_obstacle_empty_scene () =
  let chain = Robots.planar ~dof:3 ~reach:1.5 () in
  Alcotest.(check bool) "empty scene is infinitely clear" true
    (Obstacles.clearance [] chain (Array.make 3 0.) = infinity)

let test_obstacle_invalid_radius () =
  Alcotest.(check bool) "radius 0 rejected" true
    (try
       ignore (Obstacles.sphere ~center:Vec3.zero ~radius:0.);
       false
     with Invalid_argument _ -> true)

let test_obstacle_gradient_pushes_away () =
  (* clearance along the gradient direction must increase *)
  let chain = Robots.snake ~dof:12 in
  let rng = Rng.create 31 in
  let q = Target.random_config rng chain in
  let mid = Fk.position chain (Array.map (fun x -> x *. 0.5) q) in
  let scene = [ Obstacles.sphere ~center:mid ~radius:0.05 ] in
  let g = Obstacles.clearance_gradient scene chain q in
  if Vec.norm g > 1e-9 then begin
    let step = Vec.axpy 1e-3 (Vec.scale (1. /. Vec.norm g) g) q in
    Alcotest.(check bool) "clearance increases along gradient" true
      (Obstacles.clearance scene chain step > Obstacles.clearance scene chain q)
  end

let test_obstacle_objective_inactive_when_clear () =
  let chain = Robots.planar ~dof:3 ~reach:1.5 () in
  let q = Array.make 3 0. in
  let scene = [ Obstacles.sphere ~center:(Vec3.make 0. 5. 0.) ~radius:0.5 ] in
  Alcotest.(check (float 0.)) "zero objective far away" 0.
    (Dadu_linalg.Vec.norm (Obstacles.avoidance_objective scene chain q))

let test_obstacle_avoidance_via_nullspace () =
  (* hold the tip on target while the body gains clearance *)
  let chain = Robots.snake ~dof:16 in
  let rng = Rng.create 32 in
  let q_goal = Target.random_config rng chain in
  let target = Fk.position chain q_goal in
  (* obstacle near the middle of the current body *)
  let frames = Fk.frames chain q_goal in
  let near = Dadu_linalg.Mat4.position frames.(8) in
  let scene =
    [ Obstacles.sphere ~center:(Vec3.add near (Vec3.make 0.02 0.02 0.)) ~radius:0.04 ]
  in
  let before = Obstacles.clearance scene chain q_goal in
  let improved =
    Dadu_core.Nullspace.optimize ~iterations:200 ~gain:0.05
      ~objective:(Dadu_core.Nullspace.Custom (Obstacles.avoidance_objective scene chain))
      chain ~target ~theta:q_goal
  in
  let after = Obstacles.clearance scene chain improved in
  Alcotest.(check bool)
    (Printf.sprintf "clearance improved (%.4f -> %.4f)" before after)
    true (after > before);
  Alcotest.(check bool) "task held" true
    (Vec3.dist target (Fk.position chain improved) < 1.5e-2)

(* ---- Rrt ---- *)

(* a 4-DOF planar arm with a wall of spheres between two postures *)
let rrt_chain = Robots.planar ~dof:4 ~reach:2. ()

let rrt_wall =
  (* spheres blocking the straight-line joint-space interpolation between
     the arm-up and arm-down postures *)
  [ Obstacles.sphere ~center:(Vec3.make 1.4 0. 0.) ~radius:0.35 ]

let test_rrt_plans_around_wall () =
  let start = [| 0.9; 0.3; 0.2; 0.1 |] in
  let goal = [| -0.9; -0.3; -0.2; -0.1 |] in
  (* sanity: endpoints free, straight line blocked *)
  Alcotest.(check bool) "start free" true
    (Obstacles.clearance rrt_wall rrt_chain start > 0.);
  Alcotest.(check bool) "goal free" true
    (Obstacles.clearance rrt_wall rrt_chain goal > 0.);
  Alcotest.(check bool) "straight line blocked" false
    (Rrt.path_collision_free rrt_wall rrt_chain [ start; goal ]);
  let rng = Rng.create 61 in
  let result = Rrt.plan rng ~scene:rrt_wall ~chain:rrt_chain ~start ~goal in
  Alcotest.(check bool) "found a path" true (result.Rrt.path <> []);
  (match result.Rrt.path with
  | first :: _ ->
    Alcotest.(check bool) "starts at start" true (Vec.approx_equal first start);
    let last = List.nth result.Rrt.path (List.length result.Rrt.path - 1) in
    Alcotest.(check bool) "ends at goal" true (Vec.approx_equal last goal)
  | [] -> ());
  Alcotest.(check bool) "path collision-free" true
    (Rrt.path_collision_free rrt_wall rrt_chain result.Rrt.path);
  Alcotest.(check bool) "accounting positive" true
    (result.Rrt.nodes_expanded > 0 && result.Rrt.collision_checks > 0)

let test_rrt_free_space_direct () =
  (* no obstacles: planning still works and yields a valid path *)
  let start = Array.make 4 0.2 and goal = Array.make 4 (-0.4) in
  let rng = Rng.create 62 in
  let result = Rrt.plan rng ~scene:[] ~chain:rrt_chain ~start ~goal in
  Alcotest.(check bool) "path found" true (result.Rrt.path <> [])

let test_rrt_rejects_colliding_endpoints () =
  let inside =
    (* straight arm passes through the wall sphere *)
    [| 0.; 0.; 0.; 0. |]
  in
  Alcotest.(check bool) "start collides" true
    (Obstacles.penetrates rrt_wall rrt_chain inside);
  let rng = Rng.create 63 in
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Rrt.plan rng ~scene:rrt_wall ~chain:rrt_chain ~start:inside
            ~goal:(Array.make 4 0.9));
       false
     with Invalid_argument _ -> true)

let test_rrt_deterministic () =
  let start = [| 0.9; 0.3; 0.2; 0.1 |] and goal = [| -0.9; -0.3; -0.2; -0.1 |] in
  let run seed =
    (Rrt.plan (Rng.create seed) ~scene:rrt_wall ~chain:rrt_chain ~start ~goal).Rrt.path
  in
  Alcotest.(check bool) "same seed, same path" true (run 64 = run 64)

let test_rrt_shortcut_improves () =
  let start = [| 0.9; 0.3; 0.2; 0.1 |] and goal = [| -0.9; -0.3; -0.2; -0.1 |] in
  let rng = Rng.create 65 in
  let result = Rrt.plan rng ~scene:rrt_wall ~chain:rrt_chain ~start ~goal in
  let short = Rrt.shortcut rng rrt_wall rrt_chain result.Rrt.path in
  Alcotest.(check bool) "no longer" true
    (Rrt.path_length short <= Rrt.path_length result.Rrt.path +. 1e-9);
  Alcotest.(check bool) "still collision-free" true
    (Rrt.path_collision_free rrt_wall rrt_chain short);
  (match (short, result.Rrt.path) with
  | a :: _, b :: _ -> Alcotest.(check bool) "same start" true (a = b)
  | _ -> Alcotest.fail "empty");
  let last l = List.nth l (List.length l - 1) in
  Alcotest.(check bool) "same goal" true (last short = last result.Rrt.path)

let test_rrt_path_length () =
  Alcotest.(check (float 1e-12)) "two hops" 3.
    (Rrt.path_length [ [| 0. |]; [| 1. |]; [| 3. |] ]);
  Alcotest.(check (float 1e-12)) "singleton" 0. (Rrt.path_length [ [| 5. |] ])

(* ---- Spline ---- *)

let test_spline_quintic_boundaries () =
  let q0 = [| 0.; 1.; -0.5 |] and q1 = [| 1.; -1.; 0.5 |] in
  let traj = Spline.quintic ~q0 ~q1 ~duration:2. in
  let s0 = traj.Spline.at 0. and s1 = traj.Spline.at 2. in
  Alcotest.(check bool) "starts at q0" true (Vec.approx_equal ~tol:1e-12 s0.Spline.q q0);
  Alcotest.(check bool) "ends at q1" true (Vec.approx_equal ~tol:1e-12 s1.Spline.q q1);
  Alcotest.(check (float 1e-9)) "rest start" 0. (Vec.max_abs s0.Spline.qd);
  Alcotest.(check (float 1e-9)) "rest end" 0. (Vec.max_abs s1.Spline.qd);
  Alcotest.(check (float 1e-9)) "zero accel start" 0. (Vec.max_abs s0.Spline.qdd);
  Alcotest.(check (float 1e-9)) "zero accel end" 0. (Vec.max_abs s1.Spline.qdd)

let test_spline_quintic_clamps () =
  let traj = Spline.quintic ~q0:[| 0. |] ~q1:[| 1. |] ~duration:1. in
  Alcotest.(check (float 1e-12)) "before start" 0. (traj.Spline.at (-5.)).Spline.q.(0);
  Alcotest.(check (float 1e-12)) "after end" 1. (traj.Spline.at 9.).Spline.q.(0)

let test_spline_quintic_velocity_consistent =
  QCheck.Test.make ~name:"quintic velocity = dq/dt (finite diff)" ~count:100
    QCheck.(pair (float_range 0.1 0.9) (float_range 0.5 4.)) (fun (u, duration) ->
      let traj = Spline.quintic ~q0:[| 0.; 2. |] ~q1:[| 1.; -1. |] ~duration in
      let t = u *. duration in
      let eps = 1e-6 in
      let s = traj.Spline.at t in
      let qp = (traj.Spline.at (t +. eps)).Spline.q in
      let qm = (traj.Spline.at (t -. eps)).Spline.q in
      let fd = Vec.scale (1. /. (2. *. eps)) (Vec.sub qp qm) in
      Vec.approx_equal ~tol:1e-4 fd s.Spline.qd)

let test_spline_via_points_interpolates () =
  let points = [ (0., [| 0. |]); (1., [| 0.5 |]); (2.5, [| -0.2 |]); (4., [| 1. |]) ] in
  let traj = Spline.via_points points in
  Alcotest.(check (float 1e-9)) "duration" 4. traj.Spline.duration;
  List.iter
    (fun (t, q) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "passes via at t=%.1f" t)
        q.(0)
        (traj.Spline.at t).Spline.q.(0))
    points

let test_spline_via_points_c1 () =
  (* velocity continuous across the knot at t = 1 *)
  let points = [ (0., [| 0. |]); (1., [| 0.7 |]); (2., [| -0.3 |]) ] in
  let traj = Spline.via_points points in
  let eps = 1e-7 in
  let before = (traj.Spline.at (1. -. eps)).Spline.qd.(0) in
  let after = (traj.Spline.at (1. +. eps)).Spline.qd.(0) in
  Alcotest.(check (float 1e-4)) "C1 at knot" before after

let test_spline_via_points_validation () =
  let bad l =
    try
      ignore (Spline.via_points l);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "single point" true (bad [ (0., [| 1. |]) ]);
  Alcotest.(check bool) "nonzero start" true (bad [ (1., [| 0. |]); (2., [| 1. |]) ]);
  Alcotest.(check bool) "non-increasing" true
    (bad [ (0., [| 0. |]); (1., [| 1. |]); (1., [| 2. |]) ])

let test_spline_max_speed_scales () =
  let t1 = Spline.quintic ~q0:[| 0. |] ~q1:[| 1. |] ~duration:1. in
  let t2 = Spline.quintic ~q0:[| 0. |] ~q1:[| 1. |] ~duration:2. in
  Alcotest.(check (float 1e-6)) "half the speed at double the time"
    (Spline.max_speed t1 /. 2.) (Spline.max_speed t2)

let test_spline_drives_simulation () =
  (* a quintic reference tracked by computed-torque PD on the simulated
     plant: final state lands on the goal *)
  let chain = Robots.planar ~dof:2 ~reach:1. () in
  let model =
    Dynamics.model ~gravity:(Vec3.make 0. (-9.81) 0.) chain
      [| Dynamics.rod ~mass:1. ~length:0.5; Dynamics.rod ~mass:1. ~length:0.5 |]
  in
  let q0 = [| 0.3; -0.2 |] and q1 = [| 0.9; 0.5 |] in
  let traj = Spline.quintic ~q0 ~q1 ~duration:2. in
  let controller =
    Simulation.pd ~gravity_compensation:model ~kp:120. ~kd:25.
      ~target:(fun t -> (traj.Spline.at t).Spline.q)
      ()
  in
  let initial = { Simulation.time = 0.; q = Array.copy q0; qd = [| 0.; 0. |] } in
  let states = Simulation.simulate model controller ~dt:1e-3 ~duration:2.5 initial in
  let final = states.(Array.length states - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "tracked to goal (off by %.4f rad)" (Vec.dist final.Simulation.q q1))
    true
    (Vec.dist final.Simulation.q q1 < 5e-3)

(* ---- Viz ---- *)

let count_occurrences needle haystack =
  let n = String.length needle in
  let rec go idx acc =
    match Astring.String.find_sub ~start:idx ~sub:needle haystack with
    | Some i -> go (i + n) (acc + 1)
    | None -> acc
  in
  go 0 0

let test_viz_structure () =
  let chain = Robots.planar ~dof:4 ~reach:2. () in
  let rng = Rng.create 41 in
  let p1 = Viz.posture ~label:"before" (Target.random_config rng chain) in
  let p2 = Viz.posture ~label:"after" (Target.random_config rng chain) in
  let target = Target.reachable rng chain in
  let scene = [ Obstacles.sphere ~center:(Vec3.make 0.5 0.5 0.) ~radius:0.2 ] in
  let svg =
    Viz.render ~targets:[ target ] ~obstacles:scene chain [ p1; p2 ]
  in
  Alcotest.(check bool) "opens svg" true (Astring.String.is_prefix ~affix:"<svg" svg);
  Alcotest.(check bool) "closes svg" true
    (Astring.String.is_suffix ~affix:"</svg>\n" svg);
  Alcotest.(check int) "two polylines" 2 (count_occurrences "class=\"posture\"" svg);
  Alcotest.(check int) "joint dots = 2 x (dof+1)" 10
    (count_occurrences "class=\"joint\"" svg);
  Alcotest.(check int) "one target cross" 1 (count_occurrences "class=\"target\"" svg);
  Alcotest.(check int) "one obstacle" 1 (count_occurrences "class=\"obstacle\"" svg)

let test_viz_empty_rejected () =
  let chain = Robots.planar ~dof:3 ~reach:1. () in
  Alcotest.(check bool) "no postures rejected" true
    (try
       ignore (Viz.render chain []);
       false
     with Invalid_argument _ -> true)

let test_viz_points_within_canvas () =
  let chain = Robots.snake ~dof:12 in
  let rng = Rng.create 42 in
  let svg =
    Viz.render ~width:400 ~height:300 chain
      [ Viz.posture (Target.random_config rng chain) ]
  in
  (* every plotted cx/cy attribute stays within the canvas *)
  let ok = ref true in
  let check_attr name upper =
    let rec scan idx =
      match Astring.String.find_sub ~start:idx ~sub:(name ^ "=\"") svg with
      | None -> ()
      | Some i ->
        let start = i + String.length name + 2 in
        let stop = String.index_from svg start '"' in
        let v = float_of_string (String.sub svg start (stop - start)) in
        if v < -0.001 || v > upper +. 0.001 then ok := false;
        scan stop
    in
    scan 0
  in
  check_attr "cx" 400.;
  check_attr "cy" 300.;
  Alcotest.(check bool) "within canvas" true !ok

let test_viz_write () =
  let chain = Robots.planar ~dof:3 ~reach:1.5 () in
  let path = Filename.temp_file "dadu" ".svg" in
  Viz.write ~path chain [ Viz.posture (Array.make 3 0.3) ];
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "file has svg" true (Astring.String.is_prefix ~affix:"<svg" content)

(* ---- Traj ---- *)

let test_traj_line () =
  let a = Vec3.make 0. 0. 0. and b = Vec3.make 1. 2. 3. in
  let pts = Traj.line ~from:a ~to_:b ~samples:5 in
  Alcotest.(check int) "samples" 5 (Array.length pts);
  Alcotest.(check bool) "start" true (Vec3.approx_equal pts.(0) a);
  Alcotest.(check bool) "end" true (Vec3.approx_equal pts.(4) b)

let test_traj_circle_radius () =
  let center = Vec3.make 1. 1. 1. in
  let pts = Traj.circle ~center ~radius:0.5 ~normal:(Vec3.make 0. 0. 2.) ~samples:32 in
  Array.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "radius" 0.5 (Vec3.dist p center);
      Alcotest.(check (float 1e-9)) "in plane" 1. p.Vec3.z)
    pts

let test_traj_circle_plane_orthogonal () =
  let normal = Vec3.make 1. 1. 0.5 in
  let center = Vec3.zero in
  let pts = Traj.circle ~center ~radius:1. ~normal ~samples:16 in
  Array.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "orthogonal to normal" 0.
        (Vec3.dot p (Vec3.normalize normal)))
    pts

let test_traj_arc_length_line () =
  let a = Vec3.zero and b = Vec3.make 3. 4. 0. in
  Alcotest.(check (float 1e-9)) "length" 5.
    (Traj.arc_length (Traj.line ~from:a ~to_:b ~samples:11))

let test_traj_lissajous_bounds () =
  let amp = Vec3.make 1. 2. 0.5 in
  let pts =
    Traj.lissajous ~center:Vec3.zero ~amplitude:amp ~freq:(1, 2, 3) ~samples:64
  in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "bounded" true
        (Float.abs p.Vec3.x <= 1.0 +. 1e-9
        && Float.abs p.Vec3.y <= 2.0 +. 1e-9
        && Float.abs p.Vec3.z <= 0.5 +. 1e-9))
    pts

let test_traj_invalid () =
  Alcotest.(check bool) "few samples rejected" true
    (try
       ignore (Traj.line ~from:Vec3.zero ~to_:Vec3.ex ~samples:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad radius rejected" true
    (try
       ignore (Traj.circle ~center:Vec3.zero ~radius:0. ~normal:Vec3.ez ~samples:8);
       false
     with Invalid_argument _ -> true)

(* ---- differential tests: scratch FK/Jacobian vs the allocating oracle ----

   The workspace FK kernel ([Fk.run]) folds each DH transform into the
   running product without materializing the link matrix and skips products
   against the transform's structural zeros.  Every partial product it does
   compute is the same expression, in the same association order, as the
   oracle below (explicit [Dh.transform] matrices folded with the general
   [Mat4.mul]), so components may differ only in the sign of a zero —
   checked here as plain float equality or a ≤1-ulp gap, across random
   3–100-DOF chains mixing revolute and prismatic joints. *)

let ulp_close a b =
  a = b
  || (Float.is_nan a && Float.is_nan b)
  || ((a < 0.) = (b < 0.)
     && Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))
        <= 1L)

let check_ulp name expected actual =
  Array.iteri
    (fun i e ->
      if not (ulp_close e actual.(i)) then
        Alcotest.failf "%s: component %d differs beyond 1 ulp: %h vs %h" name i
          e actual.(i))
    expected

(* Random chain with mixed joint kinds and twists outside Robots.random's
   quantized set, built deterministically from a seed. *)
let mixed_chain seed dof =
  let rng = Rng.create seed in
  let links =
    Array.init dof (fun i ->
        let dh =
          Dh.make
            ~a:(Rng.uniform rng (-0.5) 0.5)
            ~alpha:(Rng.uniform rng (-.pi) pi)
            ~d:(Rng.uniform rng (-0.3) 0.3)
            ~theta:(Rng.uniform rng (-.pi) pi)
            ()
        in
        let joint =
          if Rng.float rng 1. < 0.25 then
            Joint.prismatic ~lower:(-0.5) ~upper:0.5 ()
          else Joint.revolute ~lower:(-.pi) ~upper:pi ()
        in
        { Chain.name = Printf.sprintf "j%d" (i + 1); joint; dh })
  in
  Chain.make ~name:(Printf.sprintf "mixed-%d-%d" seed dof) links

(* The algorithm [Chain.fingerprint] used before it was computed once at
   [Chain.make], kept here as the oracle: the stored value must match it
   bit for bit for any chain, base and tool (files store it). *)
let reference_fingerprint chain =
  let h = ref 0xcbf29ce484222325L in
  let mix_int64 x =
    for shift = 0 to 7 do
      let byte = Int64.to_int (Int64.shift_right_logical x (shift * 8)) land 0xff in
      h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L
    done
  in
  let mix_float x = mix_int64 (Int64.bits_of_float x) in
  mix_int64 (Int64.of_int (Chain.dof chain));
  Array.iter
    (fun { Chain.joint; dh; _ } ->
      mix_int64 (match joint.Joint.kind with Joint.Revolute -> 1L | Joint.Prismatic -> 2L);
      mix_float joint.Joint.lower;
      mix_float joint.Joint.upper;
      mix_float dh.Dh.a;
      mix_float dh.Dh.alpha;
      mix_float dh.Dh.d;
      mix_float dh.Dh.theta)
    (Chain.links chain);
  Array.iter mix_float (Chain.base chain);
  Array.iter mix_float (Chain.tool chain);
  Int64.to_int !h land max_int

let test_chain_fingerprint_oracle =
  QCheck.Test.make ~name:"stored fingerprint == reference algorithm" ~count:200
    QCheck.(triple small_nat (int_range 1 60) (triple float float float))
    (fun (seed, dof, (x, y, z)) ->
      let links = Chain.links (mixed_chain seed dof) in
      let finite v = if Float.is_finite v then v else 0. in
      let base = Mat4.translation (Vec3.make (finite x) (finite y) (finite z)) in
      let tool = Mat4.translation (Vec3.make (finite z) 0.25 (finite x)) in
      let chain = Chain.make ~base ~tool links in
      Chain.fingerprint chain = reference_fingerprint chain
      && Chain.fingerprint (Chain.make links)
         = reference_fingerprint (Chain.make links))

let mixed_config seed chain =
  let rng = Rng.create (seed + 1) in
  Array.init (Chain.dof chain) (fun i ->
      let { Chain.joint; _ } = Chain.link chain i in
      Rng.uniform rng joint.Joint.lower joint.Joint.upper)

let oracle_pose chain q =
  let links = Chain.links chain in
  let acc = ref (Mat4.copy (Chain.base chain)) in
  Array.iteri
    (fun i { Chain.joint; dh; _ } ->
      acc := Mat4.mul !acc (Dh.transform dh joint.Joint.kind q.(i)))
    links;
  Mat4.mul !acc (Chain.tool chain)

let oracle_frames chain q =
  let links = Chain.links chain in
  let n = Array.length links in
  let frames = Array.make (n + 1) (Mat4.identity ()) in
  frames.(0) <- Mat4.copy (Chain.base chain);
  for i = 0 to n - 2 do
    let { Chain.joint; dh; _ } = links.(i) in
    frames.(i + 1) <- Mat4.mul frames.(i) (Dh.transform dh joint.Joint.kind q.(i))
  done;
  let { Chain.joint; dh; _ } = links.(n - 1) in
  frames.(n) <-
    Mat4.mul
      (Mat4.mul frames.(n - 1) (Dh.transform dh joint.Joint.kind q.(n - 1)))
      (Chain.tool chain);
  frames

let chain_case_gen = QCheck.(pair (int_range 3 100) (int_bound 9999))

let test_fk_scratch_differential =
  QCheck.Test.make ~name:"scratch FK = oracle on random chains" ~count:60
    chain_case_gen
    (fun (dof, seed) ->
      let chain = mixed_chain seed dof in
      let q = mixed_config seed chain in
      let expected = oracle_pose chain q in
      let scratch = Fk.make_scratch () in
      Fk.run ~scratch chain q;
      check_ulp "pose" expected (Fk.end_transform scratch);
      let dst = Array.make 3 nan in
      Fk.position_into ~scratch ~dst chain q;
      check_ulp "position_into"
        [| expected.(3); expected.(7); expected.(11) |]
        dst;
      let p = Fk.position ~scratch chain q in
      check_ulp "position" dst [| p.Vec3.x; p.Vec3.y; p.Vec3.z |];
      true)

let test_frames_scratch_differential =
  QCheck.Test.make ~name:"scratch frames = oracle on random chains" ~count:40
    chain_case_gen
    (fun (dof, seed) ->
      let chain = mixed_chain seed dof in
      let q = mixed_config seed chain in
      let expected = oracle_frames chain q in
      let scratch = Fk.make_scratch () in
      let actual = Fk.frames ~scratch chain q in
      Array.iteri
        (fun i e -> check_ulp (Printf.sprintf "frame %d" i) e actual.(i))
        expected;
      (* scratch-owned buffer: a second call must reproduce the same bits *)
      let again = Fk.frames ~scratch chain q in
      Array.iteri
        (fun i e ->
          Array.iteri
            (fun k x ->
              if Int64.bits_of_float x <> Int64.bits_of_float again.(i).(k) then
                Alcotest.failf "frames reuse: frame %d component %d" i k)
            e)
        actual;
      true)

let test_jacobian_into_differential =
  QCheck.Test.make ~name:"position_jacobian_into = Vec3 oracle" ~count:40
    chain_case_gen
    (fun (dof, seed) ->
      let chain = mixed_chain seed dof in
      let q = mixed_config seed chain in
      let frames = oracle_frames chain q in
      let p_end = Mat4.position frames.(dof) in
      let j = Mat.create 3 dof in
      (* frames from the scratch path feed the kernel, as in the solvers *)
      let scratch = Fk.make_scratch () in
      let scratch_frames = Fk.frames ~scratch chain q in
      Jacobian.position_jacobian_into ~dst:j chain scratch_frames;
      for i = 0 to dof - 1 do
        let { Chain.joint; _ } = Chain.link chain i in
        let col =
          match joint.Joint.kind with
          | Joint.Revolute ->
            Vec3.cross (Mat4.z_axis frames.(i))
              (Vec3.sub p_end (Mat4.position frames.(i)))
          | Joint.Prismatic -> Mat4.z_axis frames.(i)
        in
        if
          not
            (ulp_close col.Vec3.x (Mat.get j 0 i)
            && ulp_close col.Vec3.y (Mat.get j 1 i)
            && ulp_close col.Vec3.z (Mat.get j 2 i))
        then Alcotest.failf "jacobian column %d differs beyond 1 ulp" i
      done;
      true)

(* Corner case: zero-length links collapse the whole chain onto the base
   frame; the fused kernel must still produce an exact identity. *)
let test_fk_zero_length_links () =
  let links =
    Array.init 8 (fun i ->
        { Chain.name = Printf.sprintf "z%d" i;
          joint = Joint.revolute ();
          dh = Dh.make () })
  in
  let chain = Chain.make ~name:"degenerate" links in
  let q = Array.make 8 0. in
  let scratch = Fk.make_scratch () in
  Fk.run ~scratch chain q;
  check_ulp "zero-length pose" (Mat4.identity ()) (Fk.end_transform scratch);
  check_ulp "zero-length oracle" (oracle_pose chain q) (Fk.end_transform scratch)

(* Corner case: configurations pinned exactly at the joint limits (the
   angles solvers clamp to), for a seed-pinned chain. *)
let test_fk_limit_boundaries () =
  let chain = mixed_chain 424242 17 in
  let scratch = Fk.make_scratch () in
  List.iter
    (fun pick ->
      let q =
        Array.init 17 (fun i ->
            let { Chain.joint; _ } = Chain.link chain i in
            pick joint)
      in
      let expected = oracle_pose chain q in
      Fk.run ~scratch chain q;
      check_ulp "limit pose" expected (Fk.end_transform scratch))
    [ (fun j -> j.Joint.lower); (fun j -> j.Joint.upper); (fun _ -> 0.) ]

(* The FK scratch caches per-chain link constants; switching chains (and
   DOFs) on one scratch must recompile, never reuse stale constants. *)
let test_fk_scratch_across_chains () =
  let a = mixed_chain 7 30 and b = mixed_chain 8 12 in
  let qa = mixed_config 7 a and qb = mixed_config 8 b in
  let shared = Fk.make_scratch () in
  let fresh () = Fk.make_scratch () in
  Fk.run ~scratch:shared a qa;
  let ea = Mat4.copy (Fk.end_transform shared) in
  Fk.run ~scratch:shared b qb;
  let eb = Mat4.copy (Fk.end_transform shared) in
  Fk.run ~scratch:shared a qa;
  let ea' = Mat4.copy (Fk.end_transform shared) in
  let want_a = fresh () and want_b = fresh () in
  Fk.run ~scratch:want_a a qa;
  Fk.run ~scratch:want_b b qb;
  check_ulp "chain a on shared scratch" (Fk.end_transform want_a) ea;
  check_ulp "chain b on shared scratch" (Fk.end_transform want_b) eb;
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float ea'.(i) then
        Alcotest.failf "revisiting chain a is not bit-stable (component %d)" i)
    ea

(* ---- speculation kernel: positions_many_into / speculate_range_into ----

   The link-major kernel folds the chain tool→base (right-to-left) while
   [Fk.run] folds base→tool, so the two reassociate the same product and
   positions agree only up to accumulated rounding — checked with a
   reach-scaled tolerance, not ulps.  Everything the kernel promises
   exactly is checked bitwise: a range-partitioned sweep writes the same
   bits as one full-range call, [err2] is exactly the fused squared
   distance of the written position, and candidates are independent. *)

let spec_close ~scale a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. scale

let candidate_oracle chain theta dtheta c =
  let dof = Chain.dof chain in
  (* the same expression order the kernel uses: α·Δθᵢ + θᵢ *)
  let q = Array.init dof (fun i -> (c *. dtheta.(i)) +. theta.(i)) in
  Fk.position chain q

let spec_case seed dof =
  let chain = mixed_chain seed dof in
  let theta = mixed_config seed chain in
  let rng = Rng.create (seed + 2) in
  let dtheta = Array.init dof (fun _ -> Rng.uniform rng (-1.) 1.) in
  let count = 1 + Rng.int rng 64 in
  let coeffs = Array.init count (fun _ -> Rng.uniform rng (-1.5) 1.5) in
  (chain, theta, dtheta, count, coeffs)

let bits = Int64.bits_of_float

let test_positions_many_differential =
  QCheck.Test.make ~name:"positions_many_into = per-candidate FK oracle"
    ~count:60 chain_case_gen (fun (dof, seed) ->
      let chain, theta, dtheta, count, coeffs = spec_case seed dof in
      let scratch = Fk.make_scratch () in
      let dst = Array.make (3 * count) nan in
      Fk.positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count;
      let scale = Chain.reach chain in
      for k = 0 to count - 1 do
        let p = candidate_oracle chain theta dtheta coeffs.(k) in
        if
          not
            (spec_close ~scale p.Vec3.x dst.(k)
            && spec_close ~scale p.Vec3.y dst.(count + k)
            && spec_close ~scale p.Vec3.z dst.((2 * count) + k))
        then
          Alcotest.failf
            "candidate %d drifted beyond reassociation tolerance" k
      done;
      true)

let test_speculate_matches_positions_many =
  QCheck.Test.make
    ~name:"speculate_range_into = positions_many_into + fused err²" ~count:60
    chain_case_gen (fun (dof, seed) ->
      let chain, theta, dtheta, count, coeffs = spec_case seed dof in
      let scratch = Fk.make_scratch () in
      let dst = Array.make (3 * count) nan in
      Fk.positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count;
      let rng = Rng.create (seed + 3) in
      let tx = Rng.uniform rng (-2.) 2.
      and ty = Rng.uniform rng (-2.) 2.
      and tz = Rng.uniform rng (-2.) 2. in
      let pos = Array.make (3 * count) nan in
      let err2 = Array.make count nan in
      Fk.speculate_range_into ~scratch ~pos ~err2 ~tx ~ty ~tz chain ~theta
        ~dtheta ~coeffs ~stride:count ~lo:0 ~hi:count;
      for i = 0 to (3 * count) - 1 do
        if bits pos.(i) <> bits dst.(i) then
          Alcotest.failf "pos component %d not bit-identical across kernels" i
      done;
      for k = 0 to count - 1 do
        let dx = tx -. pos.(k)
        and dy = ty -. pos.(count + k)
        and dz = tz -. pos.((2 * count) + k) in
        let e = ((dx *. dx) +. (dy *. dy)) +. (dz *. dz) in
        if bits e <> bits err2.(k) then
          Alcotest.failf "err2 %d is not the fused squared distance" k
      done;
      true)

let test_speculate_partition_bit_identical =
  QCheck.Test.make ~name:"range-partitioned sweeps = full sweep, bitwise"
    ~count:40 chain_case_gen (fun (dof, seed) ->
      let chain, theta, dtheta, count, coeffs = spec_case seed dof in
      let scratch = Fk.make_scratch () in
      Fk.precompile scratch chain;
      let sweep pos err2 lo hi =
        Fk.speculate_range_into ~scratch ~pos ~err2 ~tx:0.3 ~ty:(-0.7)
          ~tz:1.1 chain ~theta ~dtheta ~coeffs ~stride:count ~lo ~hi
      in
      let full_pos = Array.make (3 * count) nan in
      let full_err2 = Array.make count nan in
      sweep full_pos full_err2 0 count;
      let part_pos = Array.make (3 * count) nan in
      let part_err2 = Array.make count nan in
      let rng = Rng.create (seed + 4) in
      let grain = 1 + Rng.int rng count in
      let lo = ref 0 in
      while !lo < count do
        let hi = Stdlib.min count (!lo + grain) in
        sweep part_pos part_err2 !lo hi;
        lo := hi
      done;
      for i = 0 to (3 * count) - 1 do
        if bits part_pos.(i) <> bits full_pos.(i) then
          Alcotest.failf "partitioned pos %d differs (grain %d)" i grain
      done;
      for k = 0 to count - 1 do
        if bits part_err2.(k) <> bits full_err2.(k) then
          Alcotest.failf "partitioned err2 %d differs (grain %d)" k grain
      done;
      true)

(* zero coefficients collapse every candidate onto θ itself: planes must be
   constant bit for bit (candidate independence), and match the forward
   kernels up to reassociation *)
let test_positions_many_zero_coeff () =
  let chain = mixed_chain 99 40 in
  let theta = mixed_config 99 chain in
  let dtheta = Array.make 40 0.37 in
  let count = 8 in
  let coeffs = Array.make count 0. in
  let scratch = Fk.make_scratch () in
  let dst = Array.make (3 * count) nan in
  Fk.positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count;
  for k = 1 to count - 1 do
    for plane = 0 to 2 do
      if bits dst.((plane * count) + k) <> bits dst.(plane * count) then
        Alcotest.failf "zero-coeff candidate %d plane %d differs" k plane
    done
  done;
  let p = Fk.position chain theta in
  let scale = Chain.reach chain in
  Alcotest.(check bool) "matches forward FK" true
    (spec_close ~scale p.Vec3.x dst.(0)
    && spec_close ~scale p.Vec3.y dst.(count)
    && spec_close ~scale p.Vec3.z dst.(2 * count))

let test_speculate_validation () =
  let chain = mixed_chain 5 6 in
  let theta = Array.make 6 0. and dtheta = Array.make 6 0. in
  let scratch = Fk.make_scratch () in
  let expect name f =
    Alcotest.(check bool) name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  expect "count 0" (fun () ->
      Fk.positions_many_into ~scratch ~dst:[||] chain ~theta ~dtheta
        ~coeffs:[||] ~count:0);
  expect "short dst" (fun () ->
      Fk.positions_many_into ~scratch ~dst:(Array.make 5 0.) chain ~theta
        ~dtheta ~coeffs:(Array.make 2 0.) ~count:2);
  expect "theta length" (fun () ->
      Fk.positions_many_into ~scratch ~dst:(Array.make 6 0.) chain
        ~theta:(Array.make 5 0.) ~dtheta ~coeffs:(Array.make 2 0.) ~count:2);
  expect "dtheta length" (fun () ->
      Fk.positions_many_into ~scratch ~dst:(Array.make 6 0.) chain ~theta
        ~dtheta:(Array.make 7 0.) ~coeffs:(Array.make 2 0.) ~count:2);
  expect "short coeffs" (fun () ->
      Fk.speculate_range_into ~scratch ~pos:(Array.make 6 0.)
        ~err2:(Array.make 2 0.) ~tx:0. ~ty:0. ~tz:0. chain ~theta ~dtheta
        ~coeffs:[| 0. |] ~stride:2 ~lo:0 ~hi:2);
  expect "hi beyond stride" (fun () ->
      Fk.speculate_range_into ~scratch ~pos:(Array.make 6 0.)
        ~err2:(Array.make 2 0.) ~tx:0. ~ty:0. ~tz:0. chain ~theta ~dtheta
        ~coeffs:(Array.make 4 0.) ~stride:2 ~lo:0 ~hi:3);
  expect "negative lo" (fun () ->
      Fk.speculate_range_into ~scratch ~pos:(Array.make 6 0.)
        ~err2:(Array.make 2 0.) ~tx:0. ~ty:0. ~tz:0. chain ~theta ~dtheta
        ~coeffs:(Array.make 2 0.) ~stride:2 ~lo:(-1) ~hi:2);
  expect "short err2" (fun () ->
      Fk.speculate_range_into ~scratch ~pos:(Array.make 6 0.)
        ~err2:[| 0. |] ~tx:0. ~ty:0. ~tz:0. chain ~theta ~dtheta
        ~coeffs:(Array.make 2 0.) ~stride:2 ~lo:0 ~hi:2)

let test_chain_rejects_non_affine () =
  let bad = Mat4.identity () in
  bad.(12) <- 0.5;
  let links = [| { Chain.name = "j1"; joint = Joint.revolute (); dh = Dh.make ~a:1. () } |] in
  Alcotest.check_raises "non-affine base"
    (Invalid_argument "Chain.make: base must be affine (bottom row [0 0 0 1])")
    (fun () -> ignore (Chain.make ~base:bad links));
  Alcotest.check_raises "non-affine tool"
    (Invalid_argument "Chain.make: tool must be affine (bottom row [0 0 0 1])")
    (fun () -> ignore (Chain.make ~tool:bad links))

let () =
  Alcotest.run "dadu_kinematics"
    [
      ( "fk-differential",
        [
          qcheck test_fk_scratch_differential;
          qcheck test_frames_scratch_differential;
          qcheck test_jacobian_into_differential;
          Alcotest.test_case "zero-length links" `Quick test_fk_zero_length_links;
          Alcotest.test_case "joint-limit boundary angles" `Quick
            test_fk_limit_boundaries;
          Alcotest.test_case "scratch reuse across chains" `Quick
            test_fk_scratch_across_chains;
          Alcotest.test_case "Chain.make rejects non-affine" `Quick
            test_chain_rejects_non_affine;
        ] );
      ( "speculation-kernel",
        [
          qcheck test_positions_many_differential;
          qcheck test_speculate_matches_positions_many;
          qcheck test_speculate_partition_bit_identical;
          Alcotest.test_case "zero coefficients" `Quick
            test_positions_many_zero_coeff;
          Alcotest.test_case "argument validation" `Quick
            test_speculate_validation;
        ] );
      ( "joint",
        [
          Alcotest.test_case "clamp" `Quick test_joint_clamp;
          Alcotest.test_case "inside" `Quick test_joint_inside;
          Alcotest.test_case "unbounded" `Quick test_joint_unbounded;
          Alcotest.test_case "span" `Quick test_joint_span;
          Alcotest.test_case "bad limits" `Quick test_joint_bad_limits;
        ] );
      ( "dh",
        [
          Alcotest.test_case "identity" `Quick test_dh_identity;
          Alcotest.test_case "revolute variable" `Quick test_dh_revolute_variable;
          Alcotest.test_case "prismatic variable" `Quick test_dh_prismatic_variable;
          Alcotest.test_case "link length" `Quick test_dh_link_length;
          Alcotest.test_case "transform_into" `Quick test_dh_transform_into_matches;
          qcheck test_dh_rigid;
        ] );
      ( "chain",
        [
          Alcotest.test_case "dof" `Quick test_chain_dof;
          Alcotest.test_case "empty" `Quick test_chain_empty;
          Alcotest.test_case "reach" `Quick test_chain_reach;
          Alcotest.test_case "clamp_config" `Quick test_chain_clamp_config;
          Alcotest.test_case "check_config" `Quick test_chain_check_config;
          Alcotest.test_case "base copied" `Quick test_chain_base_tool_copied;
          Alcotest.test_case "fingerprint pinned" `Quick
            test_chain_fingerprint_pinned;
          qcheck test_chain_fingerprint_oracle;
        ] );
      ( "fk",
        [
          Alcotest.test_case "two-link straight" `Quick test_fk_two_link_zero;
          Alcotest.test_case "two-link elbow" `Quick test_fk_two_link_elbow;
          Alcotest.test_case "planar angle-sum" `Quick test_fk_planar_angle_sum;
          Alcotest.test_case "frames shape" `Quick test_fk_frames_shape;
          Alcotest.test_case "pose matches position" `Quick test_fk_pose_matches_position;
          Alcotest.test_case "scratch equivalence" `Quick test_fk_scratch_equivalence;
          Alcotest.test_case "tool transform" `Quick test_fk_tool;
          Alcotest.test_case "prismatic joint" `Quick test_fk_prismatic;
          Alcotest.test_case "flops monotone" `Quick test_fk_flops_positive;
          qcheck test_fk_within_reach;
          qcheck test_fk_pose_rigid;
        ] );
      ( "jacobian",
        [
          qcheck test_jacobian_matches_numerical;
          qcheck test_jacobian_matches_central_fd;
          Alcotest.test_case "scara vs numerical" `Quick
            test_jacobian_matches_numerical_prismatic;
          Alcotest.test_case "planar z-row" `Quick test_jacobian_planar_z_row_zero;
          Alcotest.test_case "full top rows" `Quick test_full_jacobian_top_matches;
          Alcotest.test_case "full angular part" `Quick test_full_jacobian_angular_revolute;
          Alcotest.test_case "of_frames variant" `Quick test_jacobian_of_frames_matches;
          Alcotest.test_case "frame count" `Quick test_jacobian_frame_count;
        ] );
      ( "robots",
        [
          Alcotest.test_case "factory dofs" `Quick test_robots_dofs;
          Alcotest.test_case "eval link length" `Quick test_robots_eval_chain_link_length;
          Alcotest.test_case "scara prismatic" `Quick test_robots_scara_prismatic;
          Alcotest.test_case "snake limits" `Quick test_robots_snake_limits;
          Alcotest.test_case "random deterministic" `Quick test_robots_random_deterministic;
          Alcotest.test_case "invalid dof" `Quick test_robots_invalid_dof;
        ] );
      ( "target",
        [
          qcheck test_target_reachable;
          Alcotest.test_case "config within limits" `Quick test_target_config_within_limits;
          Alcotest.test_case "batch size" `Quick test_target_batch_size;
          Alcotest.test_case "unreachable outside" `Quick test_target_unreachable_outside;
        ] );
      ( "chain-format",
        [
          Alcotest.test_case "parse" `Quick test_format_parse;
          Alcotest.test_case "round trip" `Quick test_format_roundtrip;
          Alcotest.test_case "errors" `Quick test_format_errors;
          Alcotest.test_case "comments and blanks" `Quick test_format_comments_and_blanks;
          Alcotest.test_case "parse file" `Quick test_format_parse_file;
          Alcotest.test_case "missing file" `Quick test_format_missing_file;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "singular manipulability" `Quick
            test_workspace_manipulability_singular;
          Alcotest.test_case "positive manipulability" `Quick
            test_workspace_manipulability_positive;
          Alcotest.test_case "condition >= 1" `Quick test_workspace_condition_ge_one;
          Alcotest.test_case "sample stats" `Quick test_workspace_sample;
          Alcotest.test_case "eval chain conditioning" `Slow
            test_workspace_low_twist_worse_conditioned;
          Alcotest.test_case "manipulability ellipsoid" `Quick test_workspace_ellipsoid;
        ] );
      ( "obstacles",
        [
          Alcotest.test_case "point-segment distance" `Quick test_obstacle_point_segment;
          qcheck test_obstacle_point_segment_symmetry;
          Alcotest.test_case "segment clearance" `Quick test_obstacle_segment_clearance;
          Alcotest.test_case "chain clearance" `Quick test_obstacle_chain_clearance;
          Alcotest.test_case "empty scene" `Quick test_obstacle_empty_scene;
          Alcotest.test_case "invalid radius" `Quick test_obstacle_invalid_radius;
          Alcotest.test_case "gradient pushes away" `Quick test_obstacle_gradient_pushes_away;
          Alcotest.test_case "objective inactive when clear" `Quick
            test_obstacle_objective_inactive_when_clear;
          Alcotest.test_case "avoidance via nullspace" `Slow
            test_obstacle_avoidance_via_nullspace;
        ] );
      ( "rrt",
        [
          Alcotest.test_case "plans around wall" `Slow test_rrt_plans_around_wall;
          Alcotest.test_case "free space" `Quick test_rrt_free_space_direct;
          Alcotest.test_case "rejects colliding endpoints" `Quick
            test_rrt_rejects_colliding_endpoints;
          Alcotest.test_case "deterministic" `Slow test_rrt_deterministic;
          Alcotest.test_case "shortcut improves" `Slow test_rrt_shortcut_improves;
          Alcotest.test_case "path length" `Quick test_rrt_path_length;
        ] );
      ( "spline",
        [
          Alcotest.test_case "quintic boundaries" `Quick test_spline_quintic_boundaries;
          Alcotest.test_case "quintic clamps" `Quick test_spline_quintic_clamps;
          qcheck test_spline_quintic_velocity_consistent;
          Alcotest.test_case "via points interpolate" `Quick
            test_spline_via_points_interpolates;
          Alcotest.test_case "via points C1" `Quick test_spline_via_points_c1;
          Alcotest.test_case "via validation" `Quick test_spline_via_points_validation;
          Alcotest.test_case "max speed scaling" `Quick test_spline_max_speed_scales;
          Alcotest.test_case "drives simulation" `Slow test_spline_drives_simulation;
        ] );
      ( "viz",
        [
          Alcotest.test_case "structure" `Quick test_viz_structure;
          Alcotest.test_case "empty rejected" `Quick test_viz_empty_rejected;
          Alcotest.test_case "points within canvas" `Quick test_viz_points_within_canvas;
          Alcotest.test_case "write" `Quick test_viz_write;
        ] );
      ( "traj",
        [
          Alcotest.test_case "line" `Quick test_traj_line;
          Alcotest.test_case "circle radius/plane" `Quick test_traj_circle_radius;
          Alcotest.test_case "circle orthogonality" `Quick test_traj_circle_plane_orthogonal;
          Alcotest.test_case "arc length" `Quick test_traj_arc_length_line;
          Alcotest.test_case "lissajous bounds" `Quick test_traj_lissajous_bounds;
          Alcotest.test_case "invalid inputs" `Quick test_traj_invalid;
        ] );
    ]
