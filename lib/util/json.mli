(** Minimal JSON reader/writer for the benchmark-regression harness.

    The repo has no third-party JSON dependency; this module covers the
    subset the harness needs — objects, arrays, strings, finite numbers,
    booleans and null.  Emission is compact (no whitespace); numbers that
    are mathematically integers print without a fractional part, all other
    finite doubles use a round-trippable [%.17g] form. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val num : float -> t
(** [Num x] for finite [x], [Null] otherwise.  Emitters that may carry a
    poisoned statistic (a NaN latency, an infinite error) should build
    numbers through this so one bad float costs a [null] field, not the
    whole export at the end of the run ({!to_string} raises on a raw
    non-finite [Num]). *)

val add_float : Buffer.t -> float -> unit
(** [add_float buf x] appends [x] exactly as [Printf.sprintf "%.17g" x]
    would print it, byte for byte, at a fraction of the cost.  This is the
    repo's one [%.17g] emitter: reply frames, journalled replies and reply
    dumps all go through it.  It does not check finiteness — NaN and
    infinities print as C's [printf] spells them, which is not JSON, so
    callers emitting JSON must rule them out first. *)

val add_floats : Buffer.t -> float array -> unit
(** The elements of the array through {!add_float}, separated by commas
    (no brackets). *)

val to_string : t -> string
(** Compact serialization.  @raise Invalid_argument on NaN or infinity. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    byte offset of the failure. *)

val member : string -> t -> t option
(** [member key json] is the value bound to [key] if [json] is an object
    that has it. *)

val to_float : t -> float option

val to_list : t -> t list option

val to_str : t -> string option

val write_file : string -> t -> unit
(** Serialize to a file, followed by a trailing newline. *)

val read_file : string -> (t, string) result
