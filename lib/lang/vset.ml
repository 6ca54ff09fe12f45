module Value = Csp_trace.Value

type t =
  | Nat
  | Range of int * int
  | Enum of Value.t list
  | Union of t * t
  | Bools

(* deep structural hash, consistent with structural equality *)
let rec hash = function
  | Nat -> 11
  | Bools -> 12
  | Range (lo, hi) -> ((((13 * 31) + lo) * 31) + hi) land max_int
  | Enum vs ->
    List.fold_left (fun h v -> ((h * 31) + Value.hash v) land max_int) 14 vs
  | Union (a, b) -> ((((15 * 31) + hash a) * 31) + hash b) land max_int

let rec mem m (v : Value.t) =
  match m, v with
  | Nat, Value.Int n -> n >= 0
  | Nat, _ -> false
  | Range (lo, hi), Value.Int n -> lo <= n && n <= hi
  | Range _, _ -> false
  | Enum vs, _ -> List.exists (Value.equal v) vs
  | Union (a, b), _ -> mem a v || mem b v
  | Bools, Value.Bool _ -> true
  | Bools, _ -> false

let rec has_nat = function
  | Nat -> true
  | Union (a, b) -> has_nat a || has_nat b
  | Range _ | Enum _ | Bools -> false

(* NAT is the only infinite set, so it lies inside [b] exactly when [b]
   has a NAT component, as does any range of naturals; other ranges
   are walked element by element. *)
let rec subset a b =
  match a with
  | Union (a1, a2) -> subset a1 b && subset a2 b
  | Nat -> has_nat b
  | Range (lo, hi) ->
    let rec from n = n > hi || (mem b (Value.Int n) && from (n + 1)) in
    (lo >= 0 && has_nat b) || from lo
  | Enum vs -> List.for_all (mem b) vs
  | Bools -> mem b (Value.Bool false) && mem b (Value.Bool true)

let rec is_finite = function
  | Nat -> false
  | Range _ | Enum _ | Bools -> true
  | Union (a, b) -> is_finite a && is_finite b

let dedup vs =
  List.rev
    (List.fold_left
       (fun acc v -> if List.exists (Value.equal v) acc then acc else v :: acc)
       [] vs)

let range_list lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (Value.Int i :: acc) in
  go hi []

let rec enumerate = function
  | Nat -> None
  | Range (lo, hi) -> Some (range_list lo hi)
  | Enum vs -> Some (dedup vs)
  | Bools -> Some [ Value.Bool false; Value.Bool true ]
  | Union (a, b) -> (
    match enumerate a, enumerate b with
    | Some xs, Some ys -> Some (dedup (xs @ ys))
    | _ -> None)

let rec enumerate_bounded ~bound = function
  | Nat -> range_list 0 (bound - 1)
  | Union (a, b) ->
    dedup (enumerate_bounded ~bound a @ enumerate_bounded ~bound b)
  | m -> ( match enumerate m with Some vs -> vs | None -> assert false)

let signals names = Enum (List.map (fun s -> Value.Sym s) names)

let rec equal a b =
  match a, b with
  | Nat, Nat | Bools, Bools -> true
  | Range (a1, a2), Range (b1, b2) -> a1 = b1 && a2 = b2
  | Enum xs, Enum ys ->
    List.length xs = List.length ys && List.for_all2 Value.equal xs ys
  | Union (a1, a2), Union (b1, b2) -> equal a1 b1 && equal a2 b2
  | (Nat | Range _ | Enum _ | Union _ | Bools), _ -> false

let rec pp ppf = function
  | Nat -> Format.pp_print_string ppf "NAT"
  | Bools -> Format.pp_print_string ppf "BOOL"
  | Range (lo, hi) -> Format.fprintf ppf "{%d..%d}" lo hi
  | Enum vs ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Value.pp)
      vs
  | Union (a, b) -> Format.fprintf ppf "%a ∪ %a" pp a pp b
