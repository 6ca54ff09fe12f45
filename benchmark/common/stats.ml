(* Order statistics over samples.  Percentiles are nearest-rank; the
   quartiles follow Python's [statistics.quantiles(xs, n=4)] (the
   "exclusive" method), so the spreads printed here are computed the
   way the benchmark's acceptance rule computes them. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(min n (max 1 rank) - 1)

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let at i =
      let m = i * (ld + 1) in
      let j = max 1 (min (ld - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (at 1, at 2, at 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile distance as a share of the median. *)
let rel_spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

(* Nearest-rank percentile of values that stand for [weight] samples
   each. *)
let weighted_percentile p vws =
  let vws = List.sort (fun (a, _) (b, _) -> Float.compare a b) vws in
  let total = List.fold_left (fun n (_, w) -> n + w) 0 vws in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int total))) in
  let rec walk seen = function
    | [] -> nan
    | [ (v, _) ] -> v
    | (v, w) :: rest -> if seen + w >= rank then v else walk (seen + w) rest
  in
  walk 0 vws

(* The smallest sample per key: noise on a shared host only ever adds
   time, so the best of several repetitions of one measurement is the
   steadiest estimate of it. *)
let best_by_key samples =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt h k with
      | Some b when b <= v -> ()
      | _ -> Hashtbl.replace h k v)
    samples;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs
