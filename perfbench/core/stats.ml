(* Order statistics used by every report of the benchmark. *)

let sorted xs = List.sort compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the steadiness report (steady.py)
   and the per-run reports agree on every number. A single sample is its
   own quartiles. *)
let quartiles xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan, nan, nan
  | [| x |] -> x, x, x
  | a ->
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    q 1, q 2, q 3

(* The percentiles a tail is read at, highest first. *)
let tail_levels = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* Nearest-rank percentile: the value at rank [ceil (p * n)]. *)
let rank ~n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

(* The nearest-rank [p] percentile of [xs]. *)
let percentile p xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a -> a.(min (Array.length a) (rank ~n:(Array.length a) p) - 1)

(* The highest percentile in [tail_levels] that leaves at least
   [min_beyond] samples strictly above its rank, with its value and that
   count; [None] when even the median leaves fewer. *)
let tail ?(min_beyond = 10) xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let k = rank ~n p in
      let beyond = n - k in
      if n > 0 && beyond >= min_beyond then Some (p, a.(k - 1), beyond)
      else None)
    tail_levels

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Host-speed normalisation. Between two consecutive probe points the
   factor is [reference] over the mean of their two probe times; over
   [s, e] it is the time-weighted mean of that. An interval of no length
   takes the factor of the segment that holds it. *)
let host_factor ~reference points s e =
  let pts = List.sort compare points in
  let rec segments acc = function
    | (t0, p0) :: ((t1, p1) :: _ as rest) ->
      segments ((t0, t1, reference /. ((p0 +. p1) /. 2.0)) :: acc) rest
    | _ -> acc
  in
  let segs = segments [] pts in
  let w, sum =
    List.fold_left
      (fun (w, sum) (a, b, f) ->
        let o = Float.min e b -. Float.max s a in
        if o > 0.0 then w +. o, sum +. (o *. f) else w, sum)
      (0.0, 0.0) segs
  in
  if w > 0.0 then sum /. w
  else
    match List.find_opt (fun (a, b, _) -> a <= s && s <= b) segs with
    | Some (_, _, f) -> f
    | None -> nan
