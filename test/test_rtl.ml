(* Tests for the RTL subsystem (lib/rtl): Rtl.Lint cleanliness over the
   kernel netlists the backend emits, exact differential co-simulation
   against the golden interpreter in all three interface modes, and
   job-count independence of pooled co-simulations. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

(* --- helpers --- *)

let all_mode_configs =
  List.concat_map Hls.Kernel.default_configs
    [ Hls.Kernel.Heuristic; Hls.Kernel.Coupled_only; Hls.Kernel.Scan_only ]

(* Every synthesizable kernel netlist of an analyzed benchmark: all
   regions of all functions crossed with the given configs. *)
let netlists_of (a : Core.Cayman.analyzed) configs =
  let acc = ref [] in
  Hashtbl.iter
    (fun fname (ctx : Hls.Ctx.t) ->
      match An.Wpst.func_tree a.Core.Cayman.wpst fname with
      | None -> ()
      | Some ft ->
        An.Region.iter
          (fun r ->
            List.iter
              (fun cfg ->
                match Hls.Netlist.of_kernel ctx r cfg with
                | Some { Hls.Netlist.structure = Some nl; _ } ->
                  acc := (ctx, r, cfg, nl) :: !acc
                | Some { Hls.Netlist.structure = None; _ } | None -> ())
              configs)
          ft.An.Wpst.root)
    a.Core.Cayman.ctxs;
  !acc

(* The kernels of a selected solution as cosim specs. *)
let specs_of (a : Core.Cayman.analyzed) (s : Core.Solution.t) =
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
        Some
          { Rtl.Cosim.k_ctx = ctx;
            k_region = region;
            k_config = acc.Core.Solution.a_point.Hls.Kernel.config })
    s.Core.Solution.accels

(* --- lint --- *)

(* A cross-suite sample (Fig. 6's one-per-suite picks, fft for its
   non-uniform trip counts, and loops-all-mid-10k-sp whose float-negate
   kernel once regressed the unary-operand port wiring); the bench
   harness's cosim experiment lints the full 28. *)
let lint_benchmarks = "fft" :: "loops-all-mid-10k-sp" :: Suite.fig6

let test_lint_clean () =
  let total = ref 0 in
  List.iter
    (fun name ->
      let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
      List.iter
        (fun (_, _, cfg, nl) ->
          incr total;
          match Rtl.Lint.check nl with
          | [] -> ()
          | f :: _ ->
            Alcotest.failf "%s %s [%s]: %s" name nl.Hls.Netlist.nl_name
              (Hls.Kernel.config_to_string cfg)
              (Rtl.Lint.to_string f))
        (netlists_of a all_mode_configs))
    lint_benchmarks;
  (* guard against the walk silently matching nothing *)
  Alcotest.(check bool) "linted a real population" true (!total > 1000)

let test_lint_catches_damage () =
  let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax")) in
  match
    List.find_opt
      (fun (_, _, _, nl) -> nl.Hls.Netlist.nl_wires <> [])
      (netlists_of a [ List.hd all_mode_configs ])
  with
  | None -> Alcotest.fail "no netlist to damage"
  | Some (_, _, _, nl) ->
    let undeclared =
      { nl with
        Hls.Netlist.nl_assigns =
          ("w_bogus_undeclared", "1'b0") :: nl.Hls.Netlist.nl_assigns }
    in
    Alcotest.(check bool) "undeclared assign target is reported" true
      (Rtl.Lint.check undeclared <> []);
    (* double-drive the first instance-driven wire *)
    (match nl.Hls.Netlist.nl_wires with
     | [] -> Alcotest.fail "netlist has no wires"
     | (w, _) :: _ ->
       let doubled =
         { nl with
           Hls.Netlist.nl_assigns =
             (w, "1'b1") :: (w, "1'b0") :: nl.Hls.Netlist.nl_assigns }
       in
       Alcotest.(check bool) "double-driven wire is reported" true
         (Rtl.Lint.check doubled <> []))

(* The primitive table once came from a [lazy] that raised
   [CamlinternalLazy.Undefined] when several domains forced it at once.
   First use happens once per process, so the race is probed in fresh
   processes: lint_race.exe lints from four domains released together
   and exits nonzero if any of them raised. *)
let test_lint_first_use_race () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "lint_race.exe"
  in
  let failed = ref 0 in
  for _ = 1 to 50 do
    if Sys.command (Filename.quote exe ^ " 2>/dev/null") <> 0 then
      incr failed
  done;
  Alcotest.(check int) "runs that failed" 0 !failed

(* --- co-simulation --- *)

let test_cosim_three_modes () =
  let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax")) in
  (* kernels' regions refer to the if-converted program *)
  let program = a.Core.Cayman.program in
  List.iter
    (fun mode ->
      let r = Core.Cayman.run ~mode a in
      let sel = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
      let specs = specs_of a sel in
      Alcotest.(check bool) "kernels selected" true (specs <> []);
      List.iter
        (fun (rep : Rtl.Cosim.report) ->
          if not (Rtl.Cosim.functional_ok rep) then
            Alcotest.failf "functional mismatch:\n%s"
              (Rtl.Cosim.report_to_string rep);
          Alcotest.(check bool)
            (rep.Rtl.Cosim.r_kernel ^ " invoked")
            true
            (rep.Rtl.Cosim.r_invocations > 0);
          Alcotest.(check bool)
            (rep.Rtl.Cosim.r_kernel ^ " cycles within tolerance")
            true rep.Rtl.Cosim.r_cycles_ok)
        (Rtl.Cosim.run_many program specs))
    [ Hls.Kernel.Heuristic; Hls.Kernel.Coupled_only; Hls.Kernel.Scan_only ]

let mac_src =
  {|const int N = 64;
    float a[N]; float b[N]; float out[1];
    void kernel() {
      float acc = 0.0;
      for (int i = 0; i < N; i++) { acc += a[i] * b[i]; }
      out[0] = acc;
    }
    int main() {
      for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 0.5; }
      for (int t = 0; t < 4; t++) { kernel(); }
      return (int)out[0];
    }|}

(* On a uniform-trip kernel the simulator must reproduce the estimator's
   cycle count exactly, not merely within tolerance. *)
let test_cosim_exact_cycles () =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile mac_src) in
  let program = a.Core.Cayman.program in
  let cfg =
    { Hls.Kernel.unroll = 1; pipeline = true; mode = Hls.Kernel.Heuristic }
  in
  let kernel_loops =
    List.filter
      (fun ((ctx : Hls.Ctx.t), (r : An.Region.t), _, _) ->
        String.equal ctx.Hls.Ctx.func.Ir.Func.name "kernel"
        && r.An.Region.kind = An.Region.Loop_region)
      (netlists_of a [ cfg ])
  in
  match kernel_loops with
  | [] -> Alcotest.fail "mac kernel loop not synthesizable"
  | (ctx, region, _, _) :: _ ->
    let rep =
      Rtl.Cosim.run program
        { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = cfg }
    in
    if not (Rtl.Cosim.functional_ok rep) then
      Alcotest.failf "functional mismatch:\n%s"
        (Rtl.Cosim.report_to_string rep);
    Alcotest.(check int) "four invocations" 4 rep.Rtl.Cosim.r_invocations;
    Alcotest.(check int) "cycles match the estimator exactly"
      (int_of_float rep.Rtl.Cosim.r_est_cycles)
      rep.Rtl.Cosim.r_sim_cycles

(* --- random-program smoke test --- *)

let compile_ok src =
  try Ok (Cayman_frontend.Lower.compile src) with
  | Cayman_frontend.Diag.Error d ->
    Error (Cayman_frontend.Diag.to_string d)

(* Small invocation budget; each kernel co-simulated independently
   through the pool so the jobs=1 and jobs=4 schedules must agree
   report-for-report. *)
let qcheck_cosim_smoke =
  Testutil.qtest ~count:8
    "random-program co-simulation is exact and job-count independent"
    Test_random.arb_prog (fun p ->
      match compile_ok (Test_random.prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program ->
        let a = Core.Cayman.analyze ~fuel:50_000_000 program in
        let program = a.Core.Cayman.program in
        let cfg =
          { Hls.Kernel.unroll = 1; pipeline = true;
            mode = Hls.Kernel.Heuristic }
        in
        let specs =
          List.map
            (fun (ctx, region, cfg, _) ->
              { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = cfg })
            (netlists_of a [ cfg ])
        in
        (match specs with
         | [] -> true  (* nothing synthesizable: vacuous but legal *)
         | specs ->
           let run jobs =
             Engine.Pool.map ~jobs
               (fun spec ->
                 Rtl.Cosim.run ~fuel:50_000_000 ~max_invocations:4 program
                   spec)
               specs
           in
           let r1 = run 1 in
           let r4 = run 4 in
           r1 = r4 && List.for_all Rtl.Cosim.functional_ok r1))

let tests =
  [ Alcotest.test_case "lint: suite netlists are clean" `Slow test_lint_clean;
    Alcotest.test_case "lint: damaged netlist is flagged" `Quick
      test_lint_catches_damage;
    Alcotest.test_case "lint: first use from several domains" `Quick
      test_lint_first_use_race;
    Alcotest.test_case "cosim: atax agrees in all three modes" `Slow
      test_cosim_three_modes;
    Alcotest.test_case "cosim: uniform-trip kernel cycles are exact" `Quick
      test_cosim_exact_cycles;
    qcheck_cosim_smoke ]
