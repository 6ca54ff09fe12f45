(* A small JSON tree with a parser and a compact printer: enough for
   the serve protocol, the pinned answers and the results files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad (!pos, m)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        ws ()
      | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail "bad literal"
  in
  let utf8 buf code =
    let add c = Buffer.add_char buf (Char.chr c) in
    if code < 0x80 then add code
    else if code < 0x800 then begin
      add (0xc0 lor (code lsr 6));
      add (0x80 lor (code land 0x3f))
    end
    else if code < 0x10000 then begin
      add (0xe0 lor (code lsr 12));
      add (0x80 lor ((code lsr 6) land 0x3f));
      add (0x80 lor (code land 0x3f))
    end
    else begin
      add (0xf0 lor (code lsr 18));
      add (0x80 lor ((code lsr 12) land 0x3f));
      add (0x80 lor ((code lsr 6) land 0x3f));
      add (0x80 lor (code land 0x3f))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with Failure _ -> fail "bad \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        let e = peek () in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let hi = hex4 () in
          if hi >= 0xd800 && hi < 0xdc00 && peek () = '\\' then begin
            incr pos;
            expect 'u';
            let lo = hex4 () in
            utf8 buf (0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00))
          end
          else utf8 buf hi
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          ws ();
          let k = string () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; members ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  match
    let v = value () in
    ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Bad (at, m) -> Error (Printf.sprintf "%s at byte %d" m at)

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

(* Integral values print without a fraction; others with every
   significant digit (%.17g round-trips a double). *)
let number_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_string f)
  | Str s -> escape buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* One member per line at the top two levels: diffable files. *)
let to_pretty v =
  let buf = Buffer.create 1024 in
  let rec go indent = function
    | Obj (_ :: _ as kvs) when String.length indent < 4 ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (indent ^ "  ");
          escape buf k;
          Buffer.add_string buf ": ";
          go (indent ^ "  ") v)
        kvs;
      Buffer.add_string buf ("\n" ^ indent ^ "}")
    | v -> write buf v
  in
  go "" v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let int n = Num (float_of_int n)
let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let mem_str k v = Option.bind (member k v) to_str
let mem_float k v = Option.bind (member k v) to_float
let mem_int k v = Option.bind (member k v) to_int
let mem_bool k v = Option.bind (member k v) to_bool
