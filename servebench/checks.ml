(* Correctness checks shared by every load thread.  A run is [correct]
   only if every frame parsed with the repo's own JSON parser, every
   converged θ reached its target under forward kinematics, and every
   byte-identity comparison matched.  Failures are counted and the first
   few are kept for the report. *)

let lock = Mutex.create ()
let frames = ref 0
let fk_verified = ref 0
let compared = ref 0
let failures = ref 0
let messages = ref []

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let frame () = locked (fun () -> incr frames)
let verified () = locked (fun () -> incr fk_verified)
let identical () = locked (fun () -> incr compared)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      locked (fun () ->
          incr failures;
          if List.length !messages < 8 then messages := msg :: !messages))
    fmt

let ok () = locked (fun () -> !failures = 0)

let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

let report () =
  locked (fun () ->
      Printf.printf
        "checks: %d frames parsed, %d converged replies FK-verified, %d \
         replies byte-compared, %d failures\n"
        !frames !fk_verified !compared !failures;
      List.iter (Printf.printf "  check failed: %s\n") (List.rev !messages))
