type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- parsing ---------------------------------------------------------- *)

exception Bad of string * int

let fail pos fmt = Format.kasprintf (fun m -> raise (Bad (m, pos))) fmt

type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | Some x -> fail c.i "expected '%c', found '%c'" ch x
  | None -> fail c.i "expected '%c', found end of input" ch

let literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else fail c.i "invalid literal"

(* Encode a Unicode code point as UTF-8 into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 c =
  if c.i + 4 > String.length c.s then fail c.i "truncated \\u escape";
  let v = ref 0 in
  for k = 0 to 3 do
    let d =
      match c.s.[c.i + k] with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail (c.i + k) "invalid \\u escape"
    in
    v := (!v * 16) + d
  done;
  c.i <- c.i + 4;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.i >= String.length c.s then fail c.i "unterminated string";
    match c.s.[c.i] with
    | '"' -> c.i <- c.i + 1
    | '\\' ->
      c.i <- c.i + 1;
      (if c.i >= String.length c.s then fail c.i "unterminated escape";
       let ch = c.s.[c.i] in
       c.i <- c.i + 1;
       match ch with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'u' ->
         let cp = hex4 c in
         let cp =
           (* high surrogate: require and fold the low half *)
           if cp >= 0xd800 && cp <= 0xdbff then begin
             if
               c.i + 1 < String.length c.s
               && c.s.[c.i] = '\\'
               && c.s.[c.i + 1] = 'u'
             then begin
               c.i <- c.i + 2;
               let lo = hex4 c in
               if lo < 0xdc00 || lo > 0xdfff then
                 fail c.i "invalid low surrogate";
               0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
             end
             else fail c.i "unpaired surrogate"
           end
           else if cp >= 0xdc00 && cp <= 0xdfff then
             fail c.i "unpaired surrogate"
           else cp
         in
         add_utf8 buf cp
       | _ -> fail (c.i - 1) "invalid escape '\\%c'" ch);
      go ()
    | ch when Char.code ch < 0x20 -> fail c.i "unescaped control character"
    | ch ->
      Buffer.add_char buf ch;
      c.i <- c.i + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.i in
  let consume p =
    while c.i < String.length c.s && p c.s.[c.i] do
      c.i <- c.i + 1
    done
  in
  if peek c = Some '-' then c.i <- c.i + 1;
  consume (function '0' .. '9' -> true | _ -> false);
  if peek c = Some '.' then begin
    c.i <- c.i + 1;
    consume (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek c with
  | Some ('e' | 'E') ->
    c.i <- c.i + 1;
    (match peek c with
    | Some ('+' | '-') -> c.i <- c.i + 1
    | _ -> ());
    consume (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  if c.i = start then fail start "expected a value";
  match float_of_string_opt (String.sub c.s start (c.i - start)) with
  | Some f -> f
  | None -> fail start "invalid number"

let rec parse_value c depth =
  if depth > 512 then fail c.i "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> fail c.i "expected a value, found end of input"
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.i <- c.i + 1;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value c (depth + 1) :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.i <- c.i + 1;
          go ()
        | Some ']' -> c.i <- c.i + 1
        | _ -> fail c.i "expected ',' or ']'"
      in
      go ();
      Arr (List.rev !items)
    end
  | Some '{' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.i <- c.i + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        fields := (k, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.i <- c.i + 1;
          go ()
        | Some '}' -> c.i <- c.i + 1
        | _ -> fail c.i "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { s; i = 0 } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.i <> String.length s then fail c.i "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (m, pos) -> Error (Printf.sprintf "%s at byte %d" m pos)

(* ---- printing --------------------------------------------------------- *)

(* Runs of bytes that need no escape are copied whole; only ['"'],
   ['\\'] and control bytes are rewritten. *)
let escape buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let ch = String.unsafe_get s i in
    if ch = '"' || ch = '\\' || Char.code ch < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
    end
  done;
  Buffer.add_substring buf s !run (n - !run)

let print ~newline v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f ->
      if not (Float.is_finite f) then Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          go x)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  if newline then Buffer.add_char buf '\n';
  Buffer.contents buf

let to_string v = print ~newline:false v
let to_line v = print ~newline:true v

let int n = Num (float_of_int n)
let str s = Str s

(* ---- accessors -------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 ->
    Some (int_of_float f)
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
let mem_str k v = Option.bind (member k v) to_str
let mem_int k v = Option.bind (member k v) to_int
let mem_bool k v = Option.bind (member k v) to_bool
