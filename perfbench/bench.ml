(* Benchmark runner: runs one workload and prints its metrics.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --work DIR --cli PATH/cayman_cli.exe

   Workloads: suite, fleet, serve, verify (see perfbench/README.md).
   With --trace 0 the run reports the end-to-end metrics; with --trace 1
   it makes the separate traced run and reports the per-layer metrics.
   The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Common

let end_to_end =
  [ "setup_s", "s";
    "cpu_throughput_per_s", "1/s";
    "warm_cpu_throughput_per_s", "1/s";
    "peak_rss_mb", "MB" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload suite|fleet|serve|verify --seed N \
     --seconds S --trace 0|1 --work DIR --cli CAYMAN_CLI";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and work = ref "" and cli = ref "" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | "--work" :: v :: rest -> work := v; go rest
    | "--cli" :: v :: rest -> cli := v; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !work = "" || !cli = "" || not (List.mem !trace [ 0; 1 ]) then usage ();
  ( !workload,
    { seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      work = !work;
      cli = !cli;
      jobs = 1 } )

let json_float v = Printf.sprintf "%.17g" v

let () =
  let workload, o = parse_args () in
  (* One worker domain: the host probe and the CPU clocks measure one
     thread of work (see Common), and the serve daemon gets the same. *)
  Engine.Config.set_jobs o.jobs;
  let run =
    match workload with
    | "suite" -> Suite_wl.run
    | "fleet" -> Fleet_wl.run
    | "serve" -> Serve_wl.run
    | "verify" -> Verify_wl.run
    | _ -> usage ()
  in
  Printf.printf "perfbench: workload %s, seed %d, %.0f s, trace %d, jobs %d\n%!"
    workload o.seed o.seconds (if o.trace then 1 else 0) o.jobs;
  let r = run o in
  let declared = if o.trace then Layers.per_layer else end_to_end in
  let bad = ref 0 in
  let chosen =
    List.map
      (fun (name, unit) ->
        let m =
          List.find_opt (fun m -> m.m_name = name) r.metrics
          |> Option.value ~default:(metric name unit 0.0)
        in
        let v =
          if Float.is_finite m.m_value then m.m_value
          else begin
            incr bad;
            0.0
          end
        in
        Printf.printf "  %-28s %14.6g %-9s %s\n" name v unit m.m_note;
        name, v, unit)
      declared
  in
  if not o.trace then begin
    let yard, instrs, dt = yardstick () in
    Printf.printf
      "  host yardstick: %.3f Minstr/s (reference interpreter, frozen \
       program, %d instrs in %.3f s)\n"
      yard instrs dt
  end;
  List.iter (fun l -> Printf.printf "  %s\n" l) r.lines;
  let failed = r.failed + !bad in
  let attempted = r.attempted + !bad in
  Printf.printf "  checks: %d attempted, %d failed, failed_share %g\n" attempted
    failed
    (if attempted > 0 then float_of_int failed /. float_of_int attempted else 0.0);
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_float v) unit)
         chosen)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 attempted) failed metrics
