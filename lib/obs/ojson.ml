type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emission --- *)

let escape buf s =
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

let float_str f =
  (* JSON has no NaN/Inf; clamp so exports are always parseable. *)
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    "0.000000"
  else Printf.sprintf "%.6f" f

let rec emit ~indent ~level buf v =
  let pad n =
    if indent then begin
      Buffer.add_char buf '\n';
      for _ = 1 to 2 * n do
        Buffer.add_char buf ' '
      done
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        pad (level + 1);
        emit ~indent ~level:(level + 1) buf item)
      items;
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        pad (level + 1);
        escape buf k;
        Buffer.add_char buf ':';
        if indent then Buffer.add_char buf ' ';
        emit ~indent ~level:(level + 1) buf item)
      fields;
    pad level;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  emit ~indent:false ~level:0 buf v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 4096 in
  emit ~indent:true ~level:0 buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let fail p msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let skip_ws p =
  let rec loop () =
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      loop ()
    | _ -> ()
  in
  loop ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | _ -> fail p (Printf.sprintf "expected %C" c)

let parse_literal p lit v =
  let n = String.length lit in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = lit then begin
    p.pos <- p.pos + n;
    v
  end
  else fail p (Printf.sprintf "expected %s" lit)

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' -> (
      advance p;
      match peek p with
      | Some '"' -> advance p; Buffer.add_char buf '"'; loop ()
      | Some '\\' -> advance p; Buffer.add_char buf '\\'; loop ()
      | Some '/' -> advance p; Buffer.add_char buf '/'; loop ()
      | Some 'n' -> advance p; Buffer.add_char buf '\n'; loop ()
      | Some 'r' -> advance p; Buffer.add_char buf '\r'; loop ()
      | Some 't' -> advance p; Buffer.add_char buf '\t'; loop ()
      | Some 'b' -> advance p; Buffer.add_char buf '\b'; loop ()
      | Some 'f' -> advance p; Buffer.add_char buf '\012'; loop ()
      | Some 'u' ->
        advance p;
        if p.pos + 4 > String.length p.src then fail p "bad \\u escape";
        let hex = String.sub p.src p.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail p "bad \\u escape"
        in
        p.pos <- p.pos + 4;
        (* Only BMP codepoints below 0x80 are emitted by this module;
           anything else round-trips as '?'. *)
        Buffer.add_char buf (if code < 0x80 then Char.chr code else '?');
        loop ()
      | _ -> fail p "bad escape")
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  let rec loop () =
    match peek p with
    | Some ('0' .. '9' | '-' | '+') ->
      advance p;
      loop ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance p;
      loop ()
    | _ -> ()
  in
  loop ();
  if p.pos = start then fail p "expected number";
  let text = String.sub p.src start (p.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail p "bad float"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> fail p "bad integer"

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws p;
        let key = parse_string p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        fields := (key, v) :: !fields;
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          fields_loop ()
        | Some '}' -> advance p
        | _ -> fail p "expected ',' or '}'"
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value p in
        items := v :: !items;
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          items_loop ()
        | Some ']' -> advance p
        | _ -> fail p "expected ',' or ']'"
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string p)
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some 'n' -> parse_literal p "null" Null
  | Some _ -> parse_number p

let of_string s =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then fail p "trailing garbage";
  v

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list = function List l -> Some l | _ -> None
