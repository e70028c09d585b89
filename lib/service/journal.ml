(* Crash-safe session journal: the write-ahead log behind `dadu serve
   --journal`.

   An append-only stream of length-prefixed records, each carrying its
   own FNV-1a checksum, after a fixed magic+version header — the same
   format discipline as Posture_library, but record-oriented so a
   SIGKILL can only ever tear the *tail*.  The server appends one
   record per session lifecycle event (open / waypoint commit / close)
   from the dispatcher's serial commit path, flushing before the reply
   frame is written: a record present in the journal is a commitment
   the reply it stores was (or could have been) sent, and a crash
   between solve and append simply re-solves the waypoint from the
   journalled predecessor state — byte-identical either way, which is
   what makes the replay determinism argument of DESIGN.md §16 go
   through.

   Recovery never trusts the tail: [load] decodes records until the
   first defect, reports it as a typed [load_error], and returns the
   longest valid prefix; [open_] additionally truncates the file back
   to that prefix so subsequent appends extend a well-formed log. *)

type record =
  | Opened of { session : string; robot : string; chain_fp : int; dof : int }
  | Committed of {
      session : string;
      ordinal : int;
      theta : float array option; (* converged joint vector, if any *)
      reply : string; (* exact reply frame payload, for duplicate replay *)
    }
  | Closed of { session : string }

type load_error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Truncated
  | Checksum_mismatch
  | Malformed of string

let pp_load_error ppf = function
  | Io msg -> Format.fprintf ppf "%s" msg
  | Bad_magic -> Format.fprintf ppf "not a session journal (bad magic)"
  | Unsupported_version v ->
    Format.fprintf ppf "unsupported session journal version %d" v
  | Truncated -> Format.fprintf ppf "truncated session journal"
  | Checksum_mismatch ->
    Format.fprintf ppf "session journal record checksum mismatch (corrupted)"
  | Malformed msg -> Format.fprintf ppf "malformed session journal: %s" msg

let magic = "DADUJRNL"
let version = 1
let header_len = String.length magic + 4
let max_string_len = 1 lsl 16
let max_dof = 1 lsl 16
let max_reply_len = 1 lsl 24
let max_record_bytes = 4 + max_reply_len + (8 * max_dof) + (3 * max_string_len)

let fnv1a bytes off len =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get bytes i))))
        prime
  done;
  !h

(* ---- encoding --------------------------------------------------------

   A framed record is u32 payload length, the payload, and the u64
   FNV-1a checksum of the payload.  [append] encodes straight into the
   handle's reusable buffer: the writers return the next offset, so the
   encoder allocates nothing per field. *)

let payload_size = function
  | Opened { session; robot; _ } ->
    1 + 4 + String.length session + 4 + String.length robot + 8 + 4
  | Committed { session; theta; reply; _ } ->
    1 + 4 + String.length session + 4 + 1
    + (match theta with None -> 0 | Some th -> 4 + (8 * Array.length th))
    + 4 + String.length reply
  | Closed { session } -> 1 + 4 + String.length session

let put_u8 b pos v =
  Bytes.set_uint8 b pos (v land 0xff);
  pos + 1

let put_u32 b pos v =
  Bytes.set_int32_le b pos (Int32.of_int v);
  pos + 4

let put_str b pos s =
  let n = String.length s in
  let pos = put_u32 b pos n in
  Bytes.blit_string s 0 b pos n;
  pos + n

(* Writes the framed record at offset 0 of [b], which must hold
   [4 + payload_size r + 8] bytes; returns that length. *)
let encode_into b r =
  let pos = 4 in
  let pos =
    match r with
    | Opened { session; robot; chain_fp; dof } ->
      let pos = put_u8 b pos 1 in
      let pos = put_str b pos session in
      let pos = put_str b pos robot in
      Bytes.set_int64_le b pos (Int64.of_int chain_fp);
      put_u32 b (pos + 8) dof
    | Committed { session; ordinal; theta; reply } ->
      let pos = put_u8 b pos 2 in
      let pos = put_str b pos session in
      let pos = put_u32 b pos ordinal in
      let pos =
        match theta with
        | None -> put_u8 b pos 0
        | Some th ->
          let pos = put_u8 b pos 1 in
          let pos = put_u32 b pos (Array.length th) in
          for i = 0 to Array.length th - 1 do
            Bytes.set_int64_le b (pos + (8 * i)) (Int64.bits_of_float th.(i))
          done;
          pos + (8 * Array.length th)
      in
      put_str b pos reply
    | Closed { session } ->
      let pos = put_u8 b pos 3 in
      put_str b pos session
  in
  let n = pos - 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int64_le b pos (fnv1a b 4 n);
  pos + 8

(* ---- decoding -------------------------------------------------------- *)

exception Defect of load_error

let decode_payload b off len =
  let pos = ref off in
  let stop = off + len in
  let need n = if !pos + n > stop then raise (Defect (Malformed "short field")) in
  let get_u8 () =
    need 1;
    let v = Char.code (Bytes.get b !pos) in
    incr pos;
    v
  in
  let get_u32 () =
    need 4;
    let v = Int32.to_int (Bytes.get_int32_le b !pos) in
    pos := !pos + 4;
    if v < 0 then raise (Defect (Malformed "negative length field"));
    v
  in
  let get_i64 () =
    need 8;
    let v = Bytes.get_int64_le b !pos in
    pos := !pos + 8;
    v
  in
  let get_str ~what ~cap () =
    let n = get_u32 () in
    if n > cap then
      raise (Defect (Malformed (Printf.sprintf "%s too long (%d)" what n)));
    need n;
    let s = Bytes.sub_string b !pos n in
    pos := !pos + n;
    s
  in
  let r =
    match get_u8 () with
    | 1 ->
      let session = get_str ~what:"session name" ~cap:max_string_len () in
      let robot = get_str ~what:"robot spec" ~cap:max_string_len () in
      let chain_fp = Int64.to_int (get_i64 ()) in
      let dof = get_u32 () in
      if dof > max_dof then raise (Defect (Malformed "dof out of range"));
      Opened { session; robot; chain_fp; dof }
    | 2 ->
      let session = get_str ~what:"session name" ~cap:max_string_len () in
      let ordinal = get_u32 () in
      let theta =
        match get_u8 () with
        | 0 -> None
        | 1 ->
          let dof = get_u32 () in
          if dof > max_dof then raise (Defect (Malformed "dof out of range"));
          Some
            (Array.init dof (fun _ -> Int64.float_of_bits (get_i64 ())))
        | _ -> raise (Defect (Malformed "bad theta presence flag"))
      in
      let reply = get_str ~what:"reply payload" ~cap:max_reply_len () in
      Committed { session; ordinal; theta; reply }
    | 3 ->
      let session = get_str ~what:"session name" ~cap:max_string_len () in
      Closed { session }
    | tag -> raise (Defect (Malformed (Printf.sprintf "unknown record tag %d" tag)))
  in
  if !pos <> stop then raise (Defect (Malformed "trailing record bytes"));
  r

(* Decodes records from [b] starting after the header; returns the valid
   prefix, the byte offset just past its last record, and the first
   defect if the tail is damaged. *)
let decode_records b total =
  let records = ref [] in
  let pos = ref header_len in
  let defect = ref None in
  (try
     while !pos < total do
       let start = !pos in
       if start + 4 > total then raise (Defect Truncated);
       let n = Int32.to_int (Bytes.get_int32_le b start) in
       if n <= 0 || n > max_record_bytes then
         raise (Defect (Malformed (Printf.sprintf "record length %d" n)));
       if start + 4 + n + 8 > total then raise (Defect Truncated);
       let stored = Bytes.get_int64_le b (start + 4 + n) in
       if not (Int64.equal (fnv1a b (start + 4) n) stored) then
         raise (Defect Checksum_mismatch);
       let r = decode_payload b (start + 4) n in
       records := r :: !records;
       pos := start + 4 + n + 8
     done
   with Defect e -> defect := Some e);
  (List.rev !records, !pos, !defect)

let load_bytes path =
  match
    In_channel.with_open_bin path (fun ic ->
        In_channel.input_all ic)
  with
  | s -> Ok (Bytes.unsafe_of_string s)
  | exception Sys_error msg -> Error (Io msg)

let check_header b total =
  if total < header_len then Error Truncated
  else if Bytes.sub_string b 0 (String.length magic) <> magic then
    Error Bad_magic
  else
    let v = Int32.to_int (Bytes.get_int32_le b (String.length magic)) in
    if v <> version then Error (Unsupported_version v) else Ok ()

let load path =
  match load_bytes path with
  | Error e -> Error e
  | Ok b ->
    let total = Bytes.length b in
    (match check_header b total with
    | Error e -> Error e
    | Ok () ->
      let records, _, defect = decode_records b total in
      Ok (records, defect))

(* ---- append handle ---------------------------------------------------- *)

type t = {
  oc : out_channel;
  lock : Mutex.t;
  mutable appended : int;
  mutable scratch : Bytes.t; (* encode buffer, reused under [lock] *)
}

let handle oc = { oc; lock = Mutex.create (); appended = 0; scratch = Bytes.create 4096 }

let open_ path =
  let fresh () =
    match open_out_bin path with
    | oc ->
      output_string oc magic;
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int version);
      output_bytes oc b;
      flush oc;
      Ok (handle oc, [], None)
    | exception Sys_error msg -> Error (Io msg)
  in
  if not (Sys.file_exists path) then fresh ()
  else
    match load_bytes path with
    | Error e -> Error e
    | Ok b ->
      let total = Bytes.length b in
      if total = 0 then fresh ()
      else (
        match check_header b total with
        | Error e -> Error e
        | Ok () ->
          let records, valid_len, defect = decode_records b total in
          (* a torn or corrupt tail is cut off so every future append
             extends a well-formed log *)
          (match
             let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
             (match
                if valid_len < total then Unix.ftruncate fd valid_len
              with
             | () -> ()
             | exception e ->
               (try Unix.close fd with Unix.Unix_error _ -> ());
               raise e);
             ignore (Unix.lseek fd valid_len Unix.SEEK_SET);
             Unix.out_channel_of_descr fd
           with
          | oc ->
            Ok (handle oc, records, defect)
          | exception Unix.Unix_error (e, _, _) ->
            Error (Io (Unix.error_message e))))

let append t r =
  let size = 4 + payload_size r + 8 in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if Bytes.length t.scratch < size then
        t.scratch <- Bytes.create (Stdlib.max size (2 * Bytes.length t.scratch));
      let n = encode_into t.scratch r in
      assert (n = size);
      output t.oc t.scratch 0 n;
      flush t.oc;
      t.appended <- t.appended + 1)

let appended t = t.appended

let close t =
  Mutex.lock t.lock;
  close_out_noerr t.oc;
  Mutex.unlock t.lock
