type t = { chan : Channel.t; value : Value.t }

let make chan value = { chan; value }
let v name m = { chan = Channel.simple name; value = m }
let vi name n = { chan = Channel.simple name; value = Value.Int n }

let compare a b =
  let c = Channel.compare a.chan b.chan in
  if c <> 0 then c else Value.compare a.value b.value

let equal a b = compare a b = 0
let hash e = ((Channel.hash e.chan * 31) + Value.hash e.value) land max_int
let pp ppf e = Format.fprintf ppf "%a.%a" Channel.pp e.chan Value.pp e.value
let to_string e = Format.asprintf "%a" pp e

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
