(* Order statistics for the benchmark's timings.

   A timing is reported as its median and as its tail: the highest
   percentile that still has at least [tail_beyond] samples above it,
   so the tail is never read off a handful of outliers.  Both come with
   the sample count they were computed from. *)

let tail_beyond = 10

type t = {
  n : int;
  median : float;
  tail : float;
  tail_pct : float;  (** percentile of [tail]; 100 when [n <= tail_beyond] *)
  beyond : int;  (** samples strictly above the tail rank *)
}

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median_of_sorted (a : float array) : float =
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median (xs : float list) : float = median_of_sorted (sorted xs)

(* The sample at rank [n - tail_beyond] (1-based) has exactly
   [tail_beyond] samples after it; its percentile is the share of
   samples at or below it.  With too few samples the tail degrades to
   the maximum, flagged by [beyond < tail_beyond]. *)
let summarise (xs : float list) : t =
  let a = sorted xs in
  let n = Array.length a in
  let median = median_of_sorted a in
  if n > tail_beyond then
    let rank = n - tail_beyond in
    {
      n;
      median;
      tail = a.(rank - 1);
      tail_pct = 100.0 *. float_of_int rank /. float_of_int n;
      beyond = tail_beyond;
    }
  else { n; median; tail = a.(n - 1); tail_pct = 100.0; beyond = 0 }

let geomean (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Summary.geomean: no samples"
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* Least-squares slope of log y against log x: the exponent k of a
   power law y ~ x^k fitted through the points. *)
let loglog_slope (pts : (float * float) list) : float =
  let pts = List.map (fun (x, y) -> (log x, log y)) pts in
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let mx = sx /. n and my = sy /. n in
  let num, den =
    List.fold_left
      (fun (num, den) (x, y) ->
        (num +. ((x -. mx) *. (y -. my)), den +. ((x -. mx) *. (x -. mx))))
      (0.0, 0.0) pts
  in
  if den = 0.0 then 0.0 else num /. den
