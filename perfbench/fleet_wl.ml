(* Workload [fleet]: a seeded fleet of generated programs through
   Fleet.Merge.run, cold on an empty memo store, then warm from disk. *)

open Common

(* Programs per fleet: large enough that clustering and merging see
   shared kernels, small enough for several cycles per run. *)
let programs = 96

(* Fleet [k] of a run: an untraced run measures a fleet of its own in
   every cycle (Common.cycle_seed); the traced run uses fleet 0. *)
let options o k =
  { Fleet.Merge.default_options with
    Fleet.Merge.o_kernels = programs;
    o_seed = cycle_seed o.seed k }

let fleet_run o k =
  Spans.with_span "fleet" (fun () -> Fleet.Merge.run (options o k))

type cycle = {
  cold : Fleet.Merge.report;
  cold_pass : pass;  (* without a memo store *)
  stored_pass : pass;  (* cold, writing a fresh store *)
  warm_passes : pass list;
}

(* Warm reruns per cycle: one is a few milliseconds. *)
let warm_reps = 10

(* A cold run without a memo store, which is the flow's own work; a cold
   run that writes a fresh store; then warm reruns from that store, each
   after the in-memory memo layer is dropped. The store's file writes
   are kept out of the timed cold figure: on a 2-CPU virtual host they
   were three quarters of a stored cold run's CPU time, nearly all of it
   kernel time that followed the host's file-system load rather than
   the code (perfbench/README.md); suite's cold pass still writes its
   store. Every report must equal the storeless one byte for byte, and
   no program of the fleet may fail. *)
let cycle o c k =
  Memo.Store.reset_memory ();
  let cold, cold_pass =
    timed_pass (fun () -> Memo.Store.without_cache (fun () -> fleet_run o k))
  in
  let dir = fresh_store o in
  let stored, stored_pass = timed_pass (fun () -> fleet_run o k) in
  check c
    (Fleet.Merge.report_to_string cold = Fleet.Merge.report_to_string stored)
    "fleet: stored report differs from the storeless one";
  let warm_passes =
    List.init warm_reps (fun _ ->
        Memo.Store.reset_memory ();
        let warm, warm_pass = timed_pass (fun () -> fleet_run o k) in
        check c
          (Fleet.Merge.report_to_string cold
          = Fleet.Merge.report_to_string warm)
          "fleet: warm report differs from cold";
        warm_pass)
  in
  check c (cold.Fleet.Merge.r_failed = 0)
    (Printf.sprintf "fleet: %d programs failed" cold.Fleet.Merge.r_failed);
  drop_store dir;
  { cold; cold_pass; stored_pass; warm_passes }

(* Set-up: generate the sources of fleet [k] and compile each once, as a
   user loading the fleet would. Returns the source bytes. *)
let load o k =
  List.init programs (fun index ->
      let src = Fleet.Genprog.minic_source ~seed:(cycle_seed o.seed k) ~index in
      ignore (Cayman_frontend.Lower.compile src);
      String.length src)
  |> List.fold_left ( + ) 0

(* Set-ups timed together before each cycle: about 0.1 s. *)
let setup_batch = 10

let run o =
  let c = checks () in
  let src_bytes = load o 0 in
  if not o.trace then begin
    let k = ref 0 in
    let { cycles; setup_s; rss_mb; _ } =
      repeat_for ~seconds:o.seconds
        ~setup:(fun () -> cpu_it (fun () -> load o !k))
        ~setup_batch
        (fun () ->
          let cy = cycle o c !k in
          incr k;
          cy)
    in
    let per_s t = float_of_int programs /. t in
    let thr = List.map (fun cy -> per_s (norm cy.cold_pass)) cycles in
    let warm =
      List.concat_map
        (fun cy -> List.map (fun p -> per_s (norm p)) cy.warm_passes)
        cycles
    in
    let lat = List.map (fun cy -> 1e3 *. cy.cold_pass.wall) cycles in
    let r = (List.hd cycles).cold in
    { attempted = c.attempted;
      failed = c.failed;
      metrics =
        [ metric "setup_s" "s" setup_s
            ~note:(Printf.sprintf "load of %d programs, median of %d batches of %d"
                     programs (List.length cycles) setup_batch);
          metric "cpu_throughput_per_s" "1/s" (Stats.median thr)
            ~note:(Printf.sprintf "cold programs/s, median of %d fleets"
                     (List.length thr));
          metric "warm_cpu_throughput_per_s" "1/s" (Stats.median warm)
            ~note:"warm programs/s";
          metric "peak_rss_mb" "MB" rss_mb
            ~note:(Printf.sprintf "after the first %d cycles" rss_cycles) ];
      lines =
        [ Printf.sprintf
            "fleet 0 of %d: %d kernels, %d clusters, %d shared accelerators, area \
             saving %.2f %% fleet-wide vs solo (%.2f %% per program)"
            (List.length cycles) r.Fleet.Merge.r_kernels r.Fleet.Merge.r_clusters
            r.Fleet.Merge.r_accels r.Fleet.Merge.r_saving_fleet_pct
            r.Fleet.Merge.r_saving_per_program_pct ]
        @ Report.wall_lines ~what:"cold" ~n:programs
            (List.map (fun cy -> cy.cold_pass) cycles)
        @ Report.wall_lines ~what:"cold, writing the store (not gated)" ~n:programs
            (List.map (fun cy -> cy.stored_pass) cycles)
        @ Report.wall_lines ~what:"warm" ~n:programs
            (List.concat_map
               (fun cy -> cy.warm_passes)
               cycles)
        @ Report.latency_lines "cold fleet wall" lat }
  end
  else
    Traced.run c ~what:"fleet" ~program_spans:true
      ~untraced:(fun () -> cycle o c 0)
      ~traced:(fun () -> cycle o c 0)
      ~passes:(fun cy -> cy.stored_pass, List.hd cy.warm_passes)
      ~extra:(fun cy ->
        ( [ "fleet.accels", float_of_int cy.cold.Fleet.Merge.r_accels;
            "quality.area_saving_pct", cy.cold.Fleet.Merge.r_saving_fleet_pct ],
          2 * src_bytes ))
      ~reports:(fun cy -> [ Fleet.Merge.report_to_string cy.cold ])
      ~post:(fun _ -> [])
