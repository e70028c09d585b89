(* Minimal JSON support for the benchmark-regression harness.  The repo
   deliberately has no third-party JSON dependency; this covers exactly the
   subset the harness emits and reads back: objects, arrays, strings,
   numbers, booleans and null, UTF-8 passed through untouched. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let num x = if Float.is_finite x then Num x else Null

(* ---- emission ---- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C primitive behind Printf's %f/%e/%g conversions.  Printf builds
   the format string and calls this with it, so calling it directly with
   "%.17g" gives Printf's bytes exactly, without the cost of its format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buf x = Buffer.add_string buf (format_float "%.17g" x)

let add_floats buf xs =
  for i = 0 to Array.length xs - 1 do
    if i > 0 then Buffer.add_char buf ',';
    add_float buf (Array.unsafe_get xs i)
  done

(* Integers print without a fractional part; everything else uses %.17g,
   which round-trips any finite double through [float_of_string]. *)
let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then format_float "%.0f" x
  else format_float "%.17g" x

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
    if Float.is_nan x || Float.abs x = infinity then
      invalid_arg "Json.to_string: nan/infinity are not representable"
    else Buffer.add_string buf (number_to_string x)
  | Str s -> escape_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* ---- parsing (recursive descent) ---- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string_raw st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st; go ()
      | Some '\\' -> Buffer.add_char buf '\\'; advance st; go ()
      | Some '/' -> Buffer.add_char buf '/'; advance st; go ()
      | Some 'n' -> Buffer.add_char buf '\n'; advance st; go ()
      | Some 'r' -> Buffer.add_char buf '\r'; advance st; go ()
      | Some 't' -> Buffer.add_char buf '\t'; advance st; go ()
      | Some 'b' -> Buffer.add_char buf '\b'; advance st; go ()
      | Some 'f' -> Buffer.add_char buf '\012'; advance st; go ()
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
        let hex = String.sub st.src st.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail st "bad \\u escape"
        in
        st.pos <- st.pos + 4;
        (* encode the code point as UTF-8; surrogate pairs are not needed
           for the harness's ASCII identifiers but basic BMP works *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        go ()
      | _ -> fail st "bad escape")
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  if st.pos = start then fail st "expected number";
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some x -> Num x
  | None -> fail st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let key = parse_string_raw st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '"' -> Str (parse_string_raw st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num x -> Some x | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_str = function Str s -> Some s | _ -> None

(* ---- files ---- *)

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
  |> of_string
