(* Workload [verify]: netlist generation, Rtl.Lint and Rtl.Cosim over
   the selected solutions of a small fixed set of suite benchmarks in
   the three interface modes, cold on an empty memo store, then warm
   from disk.

   Held: not listed in BENCHMARK.json while Rtl.Lint's primitive table,
   a process-wide lazy value, raises CamlinternalLazy.Undefined when two
   domains force it at once; a unit that raises counts as a failed check
   (perfbench/README.md). *)

open Common
module An = Cayman_analysis
module Hls = Cayman_hls

(* The two suite benchmarks cheapest to co-simulate. A fixed set in a
   fixed order, so every seed asks for the same work and puts the same
   load on the pool's workers. *)
let benchmarks = [ "atax"; "bicg" ]

let modes =
  [ "heuristic", Hls.Kernel.Heuristic;
    "coupled-only", Hls.Kernel.Coupled_only;
    "scan-only", Hls.Kernel.Scan_only ]

(* One unit of verification: a program's selected solution in one
   interface mode. *)
type input = {
  name : string;
  a : Core.Cayman.analyzed;
  mode : string;
  solution : Core.Solution.t;  (* best under 25% of a tile *)
}

(* The netlist and co-simulation spec of every synthesizable accelerator
   of a unit's solution. *)
let specs ~id (p : input) =
  let a = p.a in
  List.filter_map
    (fun (acc : Core.Solution.accel) ->
      let ctx = Hashtbl.find a.Core.Cayman.ctxs acc.Core.Solution.a_func in
      match
        An.Wpst.region a.Core.Cayman.wpst
          { An.Wpst.vfunc = acc.Core.Solution.a_func;
            vid = acc.Core.Solution.a_region_id }
      with
      | None -> None
      | Some region ->
        let config = acc.Core.Solution.a_point.Hls.Kernel.config in
        (match
           Spans.with_span ~id "netlist" (fun () ->
               Hls.Netlist.of_kernel ctx region config)
         with
         | Some { Hls.Netlist.structure = Some nl; _ } ->
           Some
             ({ Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = config }, nl)
         | Some { Hls.Netlist.structure = None; _ } | None -> None))
    p.solution.Core.Solution.accels

(* Set-up: compile, analyze and select; verification starts from the
   selected solutions. Each unit analyzes its program itself, as the
   co-simulation harness (bench cosim) analyzes a benchmark in the task
   that verifies it. Runs with the memo store off, so the cold pass
   below starts from an empty store. *)
let prepare () =
  List.concat_map
    (fun name ->
      List.map
        (fun (mname, mode) ->
          let a =
            Core.Cayman.analyze
              (Cayman_suites.Suite.compile (Cayman_suites.Suite.find_exn name))
          in
          let r = Core.Cayman.run ~mode a in
          { name = name ^ "/" ^ mname;
            a;
            mode = mname;
            solution = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 })
        modes)
    benchmarks

type program_result = {
  kernels : int;
  lint_findings : int;
  failures : int;  (* kernels not functionally equivalent *)
  error : string option;  (* the unit raised *)
  summary : string;  (* every report, rendered *)
  latency : float;
}

let verify_unit (p : input) t0 =
  let id = p.name in
  Spans.with_span ~id "program" @@ fun () ->
  let pairs = specs ~id p in
  let findings =
    Spans.with_span ~id "rtl.lint" (fun () ->
        List.concat_map (fun (_, nl) -> Rtl.Lint.check nl) pairs)
  in
  (* the golden run is the if-converted program the analyses refer to *)
  let reports =
    Spans.with_span ~id "rtl.cosim" (fun () ->
        Rtl.Cosim.run_many p.a.Core.Cayman.program (List.map fst pairs))
  in
  { kernels = List.length reports;
    lint_findings = List.length findings;
    failures =
      List.length
        (List.filter (fun r -> not (Rtl.Cosim.functional_ok r)) reports);
    error = None;
    summary =
      String.concat "\n"
        (List.map Rtl.Lint.to_string findings
        @ List.map Rtl.Cosim.report_to_string reports);
    latency = now () -. t0 }

(* A unit that raises counts as a failed unit; the others go on. *)
let verify_program (p : input) =
  let t0 = now () in
  try verify_unit p t0
  with e ->
    let error = Printexc.to_string e in
    { kernels = 0; lint_findings = 0; failures = 0; error = Some error;
      summary = "error: " ^ error; latency = now () -. t0 }

let pass inputs =
  timed_pass (fun () -> Engine.Pool.map verify_program inputs)

type cycle = {
  cold : program_result list;
  cold_pass : pass;
  warm_passes : pass list;
}

(* Warm reruns per cycle, each after the in-memory memo layer is
   dropped. *)
let warm_reps = 5

let kernels rs = List.fold_left (fun acc r -> acc + r.kernels) 0 rs

(* Cold pass on a fresh store, then warm reruns from disk. Every kernel
   must be functionally equivalent with zero lint findings, and the warm
   reports must equal the cold ones. *)
let cycle o c inputs =
  let dir = fresh_store o in
  let cold, cold_pass = pass inputs in
  List.iter2
    (fun (p : input) (r : program_result) ->
      check c
        (r.error = None && r.failures = 0 && r.lint_findings = 0)
        (match r.error with
         | Some e -> Printf.sprintf "verify %s raised %s" p.name e
         | None ->
           Printf.sprintf "verify %s: %d lint findings, %d functional mismatches"
             p.name r.lint_findings r.failures))
    inputs cold;
  let warm_passes =
    List.init warm_reps (fun _ ->
        Memo.Store.reset_memory ();
        let warm, warm_pass = pass inputs in
        List.iter2
          (fun (x : program_result) (y : program_result) ->
            check c (x.summary = y.summary)
              "verify: warm reports differ from cold")
          cold warm;
        warm_pass)
  in
  drop_store dir;
  { cold; cold_pass; warm_passes }

(* Speedup of the verified heuristic-mode solutions. *)
let speedup_geomean inputs =
  Stats.geomean
    (List.filter_map
       (fun (p : input) ->
         if p.mode <> "heuristic" then None
         else Some (Core.Cayman.speedup p.a p.solution))
       inputs)

let run o =
  let c = checks () in
  let inputs = prepare () in
  if not o.trace then begin
    let { cycles; setup_s; rss_mb; _ } =
      repeat_for ~seconds:o.seconds
        ~setup:(fun () -> cpu_it prepare)
        ~setup_batch:1
        (fun () -> cycle o c inputs)
    in
    let n = kernels (List.hd cycles).cold in
    check c (n > 0) "verify: no kernel was co-simulated";
    let per_s t = float_of_int n /. t in
    let thr = List.map (fun cy -> per_s (norm cy.cold_pass)) cycles in
    let warm =
      List.concat_map
        (fun cy -> List.map (fun p -> per_s (norm p)) cy.warm_passes)
        cycles
    in
    let lat =
      List.concat_map
        (fun cy -> List.map (fun r -> 1e3 *. r.latency) cy.cold)
        cycles
    in
    { attempted = c.attempted;
      failed = c.failed;
      metrics =
        [ metric "setup_s" "s" setup_s
            ~note:(Printf.sprintf "analyze + select of %s per mode, median of %d"
                     (String.concat ", " benchmarks) (List.length cycles));
          metric "cpu_throughput_per_s" "1/s" (Stats.median thr)
            ~note:(Printf.sprintf "cold kernels/s (%d kernels), median of %d"
                     n (List.length thr));
          metric "warm_cpu_throughput_per_s" "1/s" (Stats.median warm)
            ~note:"warm kernels/s";
          metric "peak_rss_mb" "MB" rss_mb
            ~note:(Printf.sprintf "after the first %d cycles" rss_cycles) ];
      lines =
        Report.wall_lines ~what:"cold" ~n
          (List.map (fun cy -> cy.cold_pass) cycles)
        @ Report.latency_lines "cold wall verification per program and mode" lat }
  end
  else
    Traced.run c ~what:"verify" ~program_spans:true
      ~untraced:(fun () -> cycle o c inputs)
      ~traced:(fun () -> cycle o c inputs)
      ~passes:(fun cy -> cy.cold_pass, List.hd cy.warm_passes)
      ~extra:(fun cy ->
        ( [ ( "rtl.lint_findings",
              float_of_int
                (List.fold_left (fun acc r -> acc + r.lint_findings) 0 cy.cold) );
            "quality.speedup_geomean", speedup_geomean inputs ],
          0 ))
      ~reports:(fun cy -> List.map (fun r -> r.summary) cy.cold)
      ~post:(fun _ -> [])
