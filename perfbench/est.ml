(* The benchmark's arithmetic: the steady timing estimator, the
   geometric mean across operation kinds, and the nearest-rank
   percentile used for the medians and tails printed beside them. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank rule: the p-th percentile (0 < p <= 100) of n sorted
   samples is the sample at 1-based rank ceil(p/100 * n).  It is always
   an observed sample, never an interpolation. *)
let rank (p : float) (n : int) : int =
  max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n /. 100.0))))

let percentile (p : float) (xs : float list) : float =
  if xs = [] then invalid_arg "Est.percentile: no samples";
  if not (p > 0.0 && p <= 100.0) then
    invalid_arg "Est.percentile: rank outside (0, 100]";
  let a = sorted xs in
  a.(rank p (Array.length a) - 1)

let median xs = percentile 50.0 xs

(* The highest of the usual tail percentiles that leaves at least ten
   samples above it; below forty samples no tail is worth naming. *)
let tail_rank (n : int) : float option =
  if n < 40 then None
  else
    List.find_opt
      (fun p -> n - rank p n >= 10)
      [ 99.9; 99.0; 95.0; 90.0; 75.0 ]

(* Steady per-kind estimator: the fastest sample.  On a shared 2-core
   host the median of a 60-s window moves by up to 1.32x while the
   fastest sample moves by 1.01-1.06x; noise only ever adds time. *)
let steady (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Est.steady: no samples"
  | x :: rest -> List.fold_left Float.min x rest

let geomean (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "Est.geomean: empty"
  | _ ->
      if List.exists (fun x -> not (x > 0.0)) xs then
        invalid_arg "Est.geomean: non-positive value";
      let n = float_of_int (List.length xs) in
      Float.exp (List.fold_left (fun a x -> a +. Float.log x) 0.0 xs /. n)
