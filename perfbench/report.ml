(* Human-readable report lines for latency samples. *)

module Stats = Perfbench_core.Stats

let latency_lines what ms =
  let n = List.length ms in
  let q1, q2, q3 = Stats.quartiles ms in
  let tail =
    match Stats.tail ms with
    | Some (p, v, beyond) ->
      Printf.sprintf "p%g %.3f ms (%d samples beyond)" (100.0 *. p) v beyond
    | None -> "no percentile has 10 samples beyond it"
  in
  [ Printf.sprintf "%s: n=%d median %.3f ms (q1 %.3f, q3 %.3f), %s" what n
      q2 q1 q3 tail ]

(* The figures behind a host-normalised throughput, for the reader:
   medians over [passes] of [n] units per wall second, per CPU second,
   and per host-normalised CPU second, and the probes of the run. *)
let wall_lines ~what ~n (passes : Common.pass list) =
  let med f = Stats.median (List.map f passes) in
  let per_s t = float_of_int n /. t in
  let probes, probe = Common.probe_summary () in
  [ Printf.sprintf
      "%s: median %.3f /s wall, %.3f /s CPU, %.3f /s normalised (%d passes; \
       %d probe points, median probe %.3f ms)"
      what
      (med (fun p -> per_s p.Common.wall))
      (med (fun p -> per_s p.Common.cpu))
      (med (fun p -> per_s (Common.norm p)))
      (List.length passes) probes (1e3 *. probe) ]
