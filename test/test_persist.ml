(* The on-disk cache snapshot: JSON substrate, round-tripping, and
   rejection of corrupt, truncated and version-mismatched files. *)

module Json = Csp_persist.Json
module Snapshot = Csp_persist.Snapshot

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- JSON ------------------------------------------------------------- *)

let parse_exn s =
  match Json.parse s with
  | Ok j -> j
  | Error m -> Alcotest.failf "parse %S: %s" s m

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.int 42;
      Json.Num (-0.5);
      Json.str "plain";
      Json.str "esc \" \\ \n \t \x01 caf\xc3\xa9";
      Json.Arr [ Json.int 1; Json.Null; Json.str "x" ];
      Json.Obj
        [ ("a", Json.int 1); ("nested", Json.Obj [ ("b", Json.Arr [] ) ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      check_bool s true (parse_exn s = j);
      (* printing is a fixpoint through one round trip *)
      check_string "reprint" s (Json.to_string (parse_exn s)))
    cases

let test_json_numbers () =
  check_string "integral" "3" (Json.to_string (Json.Num 3.0));
  check_string "fraction" "3.5" (Json.to_string (Json.Num 3.5));
  check_string "nonfinite" "null" (Json.to_string (Json.Num nan));
  check_int "int back" 17 (Option.get (Json.to_int (parse_exn "17")));
  check_bool "3.5 not int" true (Json.to_int (parse_exn "3.5") = None)

let test_json_escapes () =
  check_bool "unicode" true (parse_exn {|"é"|} = Json.str "\xc3\xa9");
  check_bool "surrogate pair" true
    (parse_exn {|"😀"|} = Json.str "\xf0\x9f\x98\x80");
  check_bool "control escaped" true
    (String.length (Json.to_string (Json.str "\x00")) > 4)

(* The printer's escaper before it copied plain runs whole: one
   decision per byte.  Kept as the reference the faster one must
   match byte for byte. *)
let reference_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  "\"" ^ Buffer.contents buf ^ "\""

(* Strings over all 256 byte values, weighted toward the bytes the
   escaper rewrites. *)
let json_string =
  QCheck2.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, oneofl [ '"'; '\\'; '\n' ]);
             (2, map Char.chr (int_range 0 0x1f));
             (5, char);
           ])
      (int_range 0 80))

let json_escape_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"string escaping: reference bytes, parses back, one frame"
       ~print:(Printf.sprintf "%S") json_string (fun s ->
         let printed = Json.to_string (Json.Str s) in
         String.equal printed (reference_escape s)
         && Json.parse printed = Ok (Json.Str s)
         && String.equal (Json.to_line (Json.Str s)) (printed ^ "\n")))

(* The parser's string reader before it copied plain runs whole: one
   buffer append per byte.  Kept as the reference the faster one must
   match, in values and in error offsets, on inputs that are one string
   literal followed by optional whitespace and garbage. *)
let reference_parse_string s =
  let n = String.length s in
  let i = ref 1 and buf = Buffer.create 16 in
  let fail pos m = raise (Failure (Printf.sprintf "%s at byte %d" m pos)) in
  let hex4 () =
    if !i + 4 > n then fail !i "truncated \\u escape";
    let v = ref 0 in
    for k = 0 to 3 do
      let d =
        match s.[!i + k] with
        | '0' .. '9' as ch -> Char.code ch - Char.code '0'
        | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
        | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
        | _ -> fail (!i + k) "invalid \\u escape"
      in
      v := (!v * 16) + d
    done;
    i := !i + 4;
    !v
  in
  let add_utf8 cp =
    let b = Buffer.add_char buf and c = Char.chr in
    if cp < 0x80 then b (c cp)
    else if cp < 0x800 then begin
      b (c (0xc0 lor (cp lsr 6)));
      b (c (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      b (c (0xe0 lor (cp lsr 12)));
      b (c (0x80 lor ((cp lsr 6) land 0x3f)));
      b (c (0x80 lor (cp land 0x3f)))
    end
    else begin
      b (c (0xf0 lor (cp lsr 18)));
      b (c (0x80 lor ((cp lsr 12) land 0x3f)));
      b (c (0x80 lor ((cp lsr 6) land 0x3f)));
      b (c (0x80 lor (cp land 0x3f)))
    end
  in
  let rec go () =
    if !i >= n then fail !i "unterminated string";
    match s.[!i] with
    | '"' -> incr i
    | '\\' ->
      incr i;
      if !i >= n then fail !i "unterminated escape";
      let ch = s.[!i] in
      incr i;
      (match ch with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let cp = hex4 () in
        if cp >= 0xd800 && cp <= 0xdbff then begin
          if !i + 1 < n && s.[!i] = '\\' && s.[!i + 1] = 'u' then begin
            i := !i + 2;
            let lo = hex4 () in
            if lo < 0xdc00 || lo > 0xdfff then fail !i "invalid low surrogate";
            add_utf8 (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
          end
          else fail !i "unpaired surrogate"
        end
        else if cp >= 0xdc00 && cp <= 0xdfff then fail !i "unpaired surrogate"
        else add_utf8 cp
      | _ -> fail (!i - 1) (Printf.sprintf "invalid escape '\\%c'" ch));
      go ()
    | ch when Char.code ch < 0x20 -> fail !i "unescaped control character"
    | ch ->
      Buffer.add_char buf ch;
      incr i;
      go ()
  in
  match
    go ();
    while !i < n && String.contains " \t\n\r" s.[!i] do
      incr i
    done;
    if !i <> n then fail !i "trailing garbage"
  with
  | () -> Ok (Json.Str (Buffer.contents buf))
  | exception Failure m -> Error m

(* The body of a string literal: the escaper's strings, printed and
   raw, and escape sequences valid and broken, so the reader's every
   path and error offset is reached. *)
let literal_body =
  let printed s =
    let r = reference_escape s in
    String.sub r 1 (String.length r - 2)
  in
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 0 24)
         (frequency
            [
              (4, map printed json_string);
              (1, json_string);
              ( 3,
                oneofl
                  [ {|\n|}; {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\t|};
                    {|\u00e9|}; {|\u20AC|}; {|\ud83d\ude00|}; {|\u0000|} ] );
              ( 1,
                oneofl
                  [ {|\x|}; {|\u12|}; {|\u12g4|}; {|\ud83d|}; {|\ud83dx|};
                    {|\ud83d\u0041|}; {|\ude00|}; "\\"; "\" 1"; "\"  " ] );
            ])))

let json_parse_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000
       ~name:"string reading: the per-byte reference's values and errors"
       ~print:(Printf.sprintf "%S") literal_body (fun body ->
         List.for_all
           (fun input -> Json.parse input = reference_parse_string input)
           [ "\"" ^ body ^ "\""; "\"" ^ body; "\"" ^ body ^ "\" \n" ]))

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "tru";
  bad "1 2";
  (* trailing garbage *)
  bad "\"unterminated";
  bad (String.make 600 '[' ^ String.make 600 ']')
(* depth bound *)

(* ---- snapshot round trip ---------------------------------------------- *)

let sample =
  {
    Snapshot.entries =
      [
        {
          Snapshot.source = "main = a!0 -> main\n";
          compiled =
            [
              { Snapshot.process = "main"; budget = Some 2000; nat_bound = 3 };
              { Snapshot.process = "main"; budget = None; nat_bound = 2 };
            ];
          certs = "";
        };
        {
          Snapshot.source = "copier = input?x:NAT -> output!x -> copier\n";
          compiled = [];
          certs = "(cert (judgment (sat copier \"output <= input\")))";
        };
      ];
  }

let test_roundtrip () =
  match Snapshot.decode (Snapshot.encode sample) with
  | Ok t -> check_bool "equal" true (t = sample)
  | Error m -> Alcotest.fail m

let test_file_roundtrip () =
  let path = Filename.temp_file "cspc-snap" ".cspc" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Snapshot.save path sample;
  (match Snapshot.load path with
  | Ok t -> check_bool "equal" true (t = sample)
  | Error m -> Alcotest.fail m);
  check_bool "no tmp left" false (Sys.file_exists (path ^ ".tmp"))

let expect_error ~substring s =
  match Snapshot.decode s with
  | Ok _ -> Alcotest.failf "decode accepted a damaged snapshot"
  | Error m ->
    let lower = String.lowercase_ascii m in
    if
      not
        (String.length lower >= String.length substring
        && Seq.exists
             (fun i ->
               String.sub lower i (String.length substring) = substring)
             (Seq.init
                (String.length lower - String.length substring + 1)
                Fun.id))
    then Alcotest.failf "error %S does not mention %S" m substring

let test_corruption_rejected () =
  let img = Snapshot.encode sample in
  (* flip one payload byte: the header still parses, the digest must
     catch the damage *)
  let body_start = String.index img '\n' + 1 in
  let b = Bytes.of_string img in
  let i = body_start + (String.length img - body_start) / 2 in
  Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
  expect_error ~substring:"digest" (Bytes.to_string b)

let test_truncation_rejected () =
  let img = Snapshot.encode sample in
  expect_error ~substring:"truncated"
    (String.sub img 0 (String.length img - 10));
  expect_error ~substring:"trailing" (img ^ "extra");
  expect_error ~substring:"header" "";
  expect_error ~substring:"magic" ("not-a-snapshot 1 x 0\n" ^ img)

let test_version_mismatch_rejected () =
  let img = Snapshot.encode sample in
  let header_end = String.index img '\n' in
  let header = String.sub img 0 header_end in
  let rest = String.sub img header_end (String.length img - header_end) in
  let bumped =
    match String.split_on_char ' ' header with
    | m :: v :: tl ->
      String.concat " " (m :: string_of_int (int_of_string v + 98) :: tl)
    | _ -> Alcotest.fail "unexpected header shape"
  in
  expect_error ~substring:"version mismatch" (bumped ^ rest)

let test_load_missing_file () =
  match Snapshot.load "/nonexistent/cspc-snapshot" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a snapshot from a missing file"

let () =
  Alcotest.run "persist"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          json_escape_property;
          json_parse_property;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick
            test_corruption_rejected;
          Alcotest.test_case "truncation rejected" `Quick
            test_truncation_rejected;
          Alcotest.test_case "version mismatch rejected" `Quick
            test_version_mismatch_rejected;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
        ] );
    ]
