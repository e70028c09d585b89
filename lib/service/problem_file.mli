open Dadu_core
open Dadu_kinematics

(** Plain-text batch problem files for `dadu serve-batch`.

    One declaration per line; [#] starts a comment, blank lines are
    ignored.  Example:

    {v
    # a mixed batch against two robots
    robot eval:12
    random 100 seed=7        # 100 reachable targets, random starts
    target 6.0,2.0,1.0       # explicit target, zero start (clamped)
    target 6.0,2.0,1.0 theta0=0.1,0.2,0,0,0,0,0,0,0,0,0,0
    robot arm7
    target 0.4,0.3,0.5
    v}

    [robot] selects the chain for the following lines: a builtin spec
    (arm6 | arm7 | scara | snake:<dof> | eval:<dof> | planar:<dof>) or
    [file:<path>] for a {!Chain_format} description file.  [target]
    coordinates are comma-separated meters; without [theta0=] the start
    is the zero configuration clamped to the joint limits.  [random n]
    draws [n] reachable problems from seed [seed] (default 42) — the
    {!Ik.random_problem} setup.  Problems appear in file order.

    [target] and [random] lines additionally accept [deadline=<s>] — a
    non-negative per-request deadline in seconds from the batch's start
    (see {!Service.request}); on a [random] line it applies to every
    problem the line draws. *)

val robot_of_spec : string -> (Chain.t, string) result
(** The [robot] line's spec parser, usable on its own.  Every call builds
    a fresh chain (and a [file:] spec reads its file again). *)

val is_file_spec : string -> bool
(** Whether the spec names a description file ([file:<path>]) rather
    than a builtin robot. *)

type entry = { problem : Ik.problem; deadline_s : float option }

val parse_requests : string -> (entry array, string) result
(** Errors carry the 1-based line number and what was expected. *)

val parse_requests_file : string -> (entry array, string) result
(** Reads and parses a file; I/O failures are reported in the error. *)

val parse : string -> (Ik.problem array, string) result
(** {!parse_requests} with the deadlines dropped. *)

val parse_file : string -> (Ik.problem array, string) result
(** Reads and parses a file; I/O failures are reported in the error. *)

(** {1 Wire framing}

    One frame of the `dadu serve` protocol: the payload byte length in
    ASCII decimal, [\n], the payload bytes, [\n].  Payloads are JSON
    documents, but the framing layer never inspects them — a malformed
    JSON payload costs a typed error reply while the stream stays
    synchronized; a malformed {e length line} desynchronizes the stream
    and the connection must be dropped. *)

val max_frame_bytes : int
(** Upper bound on a frame payload (16 MiB): a garbage length line must
    not turn into a gigabyte allocation. *)

val write_frame : out_channel -> string -> unit
(** Writes one frame.  The caller flushes. *)

val read_frame : in_channel -> (string option, string) result
(** Reads one frame: [Ok None] on clean EOF before a length line,
    [Ok (Some payload)] on success, [Error] on a malformed length line
    or a truncated/unterminated frame (the stream is desynchronized —
    close the connection). *)

(** {2 Deadline-aware framing}

    {!read_frame} blocks on a stdlib channel, so a peer that stops
    mid-frame pins the reading thread forever.  {!read_frame_fd} works
    on the raw descriptor with [Unix.select] and enforces two distinct
    deadlines: an {e idle} timeout while waiting for the first byte of
    the next frame (slow-loris defense) and a {e frame} timeout for
    completing a frame once started (a half-written frame cannot pin a
    reader past it).  Either [None] waits forever. *)

type frame_reader
(** Buffered reader state for one descriptor; not thread-safe. *)

val frame_reader : Unix.file_descr -> frame_reader

type framed =
  | Frame of string
  | Eof  (** clean EOF before a length line *)
  | Timed_out of [ `Idle | `Frame ]
  | Frame_error of string
      (** stream desynchronized or read failure: drop the connection *)

val read_frame_fd :
  ?idle_timeout_s:float -> ?frame_timeout_s:float -> frame_reader -> framed

val write_frame_injected :
  fault:Dadu_util.Fault.t -> out_channel -> string -> bool
(** Write one frame (flushed) through a wire-fault registry consulting
    the [net-*] sites of {!Dadu_util.Fault} in fixed order (cut, short
    frame, garble, stall).  Returns [false] when the plan abandoned the
    stream ([net-cut] writes nothing, [net-short-frame] writes a bare
    prefix) — the caller must stop using the connection and shut it
    down.  [net-garble] corrupts the length line (only header
    corruption is reliably detectable — payloads carry no checksum);
    [net-stall] sleeps [arg] seconds between length line and payload.
    With a disabled registry this is exactly [write_frame] + flush. *)

(** {1 Client scripts}

    The `dadu client` op stream: one op per line, [#] comments and blank
    lines as in problem files.

    {v
    hello acme                    # name this connection's tenant
    open s1 eval:30               # open (or resume) a trajectory session
    waypoint s1 4.0,1.0,2.0       # stream Cartesian waypoints
    waypoint s1 4.0,1.1,2.0
    close s1
    robot eval:12                 # robot for subsequent one-shot solves
    solve 3.0,1.0,1.0 deadline=0.5
    solve 3.0,1.0,1.0 theta0=0.1,0,0,0,0,0,0,0,0,0,0,0
    ping
    stats
    raw {"op":"nonsense"          # verbatim payload (malformed-frame tests)
    v}

    Robot specs stay strings — the server resolves them, so a bad spec
    exercises the server's typed error reply rather than failing
    client-side. *)

type op =
  | Hello of { tenant : string }
  | Open of { session : string; robot : string }
  | Waypoint of { session : string; x : float; y : float; z : float }
  | Solve of {
      robot : string;
      x : float;
      y : float;
      z : float;
      theta0 : float list option;
      deadline_s : float option;
    }
  | Ping
  | Close of { session : string }
  | Stats
  | Raw of string  (** payload sent verbatim in one frame *)

val parse_script : string -> (op array, string) result
(** Errors carry the 1-based line number and what was expected. *)

val parse_script_file : string -> (op array, string) result
(** Reads and parses a file; I/O failures are reported in the error. *)
