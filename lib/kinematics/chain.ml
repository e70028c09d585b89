open Dadu_linalg

type link = { name : string; joint : Joint.t; dh : Dh.t }

type t = {
  chain_name : string;
  links : link array;
  base : Mat4.t;
  tool : Mat4.t;
  fp : int; (* [compute_fingerprint], once, at [make] *)
}

(* The FK kernels compose with the affine fast path (Mat4.mul_affine_into),
   which is only valid when every factor has bottom row [0 0 0 1].  DH link
   transforms have it by construction; base and tool are user input, so
   enforce it here once instead of per multiply. *)
let check_affine what m =
  if Array.length m <> 16 then
    invalid_arg (Printf.sprintf "Chain.make: %s is not a 4x4 matrix" what);
  if not (Mat4.is_affine m) then
    invalid_arg
      (Printf.sprintf "Chain.make: %s must be affine (bottom row [0 0 0 1])" what)

(* FNV-1a over the raw IEEE-754 bits of everything that affects kinematics:
   DOF, joint kind and limits, DH parameters, base and tool transforms, each
   value mixed as 8 little-endian bytes.  The name is deliberately excluded
   — two chains with identical geometry are the same robot for seeding
   purposes, whatever they are called.  Posture libraries and session
   journals store the result, so it must stay bit-for-bit stable. *)
let fnv_prime = 0x100000001b3L

let[@inline] mix h x =
  let h = ref h in
  for shift = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical x (shift * 8)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime
  done;
  !h

let compute_fingerprint links base tool =
  let h = ref (mix 0xcbf29ce484222325L (Int64.of_int (Array.length links))) in
  for i = 0 to Array.length links - 1 do
    let { joint; dh; _ } = links.(i) in
    let kind = match joint.Joint.kind with Joint.Revolute -> 1L | Joint.Prismatic -> 2L in
    h := mix !h kind;
    h := mix !h (Int64.bits_of_float joint.Joint.lower);
    h := mix !h (Int64.bits_of_float joint.Joint.upper);
    h := mix !h (Int64.bits_of_float dh.Dh.a);
    h := mix !h (Int64.bits_of_float dh.Dh.alpha);
    h := mix !h (Int64.bits_of_float dh.Dh.d);
    h := mix !h (Int64.bits_of_float dh.Dh.theta)
  done;
  for i = 0 to Array.length base - 1 do
    h := mix !h (Int64.bits_of_float base.(i))
  done;
  for i = 0 to Array.length tool - 1 do
    h := mix !h (Int64.bits_of_float tool.(i))
  done;
  Int64.to_int !h land max_int

let make ?(name = "chain") ?base ?tool links =
  if Array.length links = 0 then invalid_arg "Chain.make: no links";
  let base = match base with Some b -> check_affine "base" b; Mat4.copy b | None -> Mat4.identity () in
  let tool = match tool with Some t -> check_affine "tool" t; Mat4.copy t | None -> Mat4.identity () in
  let links = Array.copy links in
  { chain_name = name; links; base; tool; fp = compute_fingerprint links base tool }

let name t = t.chain_name

let dof t = Array.length t.links

let links t = t.links

let link t i = t.links.(i)

let base t = t.base

let tool t = t.tool

let fingerprint t = t.fp

let reach t =
  Array.fold_left
    (fun acc { joint; dh; _ } ->
      let travel =
        match joint.Joint.kind with
        | Joint.Revolute -> 0.
        | Joint.Prismatic ->
          if Joint.unbounded joint then infinity
          else Float.max (Float.abs joint.Joint.lower) (Float.abs joint.Joint.upper)
      in
      acc +. Float.abs dh.Dh.a +. Float.abs dh.Dh.d +. travel)
    0. t.links

let check_config t q =
  if Array.length q <> dof t then
    invalid_arg
      (Printf.sprintf "Chain %s: config has %d entries, expected %d" t.chain_name
         (Array.length q) (dof t))

let clamp_config t q =
  check_config t q;
  Array.mapi (fun i qi -> Joint.clamp t.links.(i).joint qi) q

let config_inside t q =
  check_config t q;
  let rec loop i =
    i >= dof t || (Joint.inside t.links.(i).joint q.(i) && loop (i + 1))
  in
  loop 0

let pp ppf t =
  Format.fprintf ppf "@[<v>chain %s (%d DOF)" t.chain_name (dof t);
  Array.iter
    (fun { name; joint; dh } ->
      Format.fprintf ppf "@,  %s: %a %a" name Joint.pp joint Dh.pp dh)
    t.links;
  Format.fprintf ppf "@]"
