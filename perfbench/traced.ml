(* The traced run ([--trace 1]) shared by the cycle-shaped workloads
   (suite, fleet, verify). After one discarded warm-up cycle (heap
   growth, first-touch page faults), it makes three runs of one cycle:

   - untraced with two worker domains: counters, GC, memo and quality
     figures, and the parallel wall time;
   - untraced with one job: the serial wall time (engine efficiency is
     serial / (parallel x jobs)) and the base of the tracing overhead;
   - traced with one job, so every span lands on one domain and layer
     self times plus unattributed time add up to the traced wall time.

   The three must agree on every deterministic figure: the rendered
   reports and the program's counters over the cold and the first warm
   pass. The two-job and the one-job cycle differ only in the number of
   worker domains, so that comparison is the determinism check across
   job counts; the traced cycle must also do the same work as the
   untraced ones (a decomposed call that missed the memo store would
   show as extra misses), and its warm pass must not run the
   interpreter. *)

open Common

(* Worker domains of the parallel cycle. *)
let par_jobs = 2

let run c ~what ~program_spans ~untraced ~traced ~passes ~reports ~extra
    ~post =
  ignore (untraced ());
  let gc0 = gc_now () in
  let t0 = now () in
  let un = with_jobs par_jobs untraced in
  let w_par = now () -. t0 in
  let gc = gc_diff gc0 (gc_now ()) in
  let entries, bytes = !last_store in
  let t0 = now () in
  let serial = with_jobs 1 untraced in
  let w_serial = now () -. t0 in
  Spans.reset ();
  Spans.set_enabled true;
  let t0 = now () in
  let tr, dropped =
    if program_spans then with_program_spans (fun () -> with_jobs 1 traced)
    else with_jobs 1 traced, 0
  in
  let w_traced = now () -. t0 in
  Spans.set_enabled false;
  let spans = Spans.spans () in
  Spans.reset ();
  check c (dropped = 0)
    (Printf.sprintf "%s: %d program spans dropped" what dropped);
  let same label other =
    check c (reports un = reports other)
      (Printf.sprintf "%s: %s reports differ from the %d-job ones" what label
         par_jobs);
    let (c1, w1), (c2, w2) = passes un, passes other in
    check c
      (c1.counts = c2.counts && w1.counts = w2.counts)
      (Printf.sprintf "%s: %s counters differ from the %d-job ones" what label
         par_jobs)
  in
  same "1-job" serial;
  same "traced" tr;
  let warm_start = (snd (passes tr)).start in
  check c
    (not
       (List.exists
          (fun (s : Spans.span) ->
            s.Spans.start >= warm_start && Layers.layer_of s.Spans.name = Some "sim")
          spans))
    (Printf.sprintf "%s: the traced warm pass ran the interpreter" what);
  let a = Spans.attribute ~layer_of:Layers.layer_of ~wall:w_traced spans in
  let residual = Spans.layer_total a +. a.Spans.unattributed -. w_traced in
  (* imported spans may overhang their container by microseconds *)
  check c
    (Float.abs residual <= 1e-3 *. w_traced)
    (Printf.sprintf "%s: layer self times do not reconcile (%g s)" what residual);
  let cold, warm = passes un in
  let d = delta cold.counts in
  let f = float_of_int in
  let hits = delta cold.counts "memo.disk_hits" + delta warm.counts "memo.disk_hits" in
  let misses =
    delta cold.counts "memo.disk_misses" + delta warm.counts "memo.disk_misses"
  in
  let layer = Layers.of_attribution a spans in
  let busy name = Option.value ~default:0.0 (List.assoc_opt name layer) in
  let extra_metrics, src_bytes = extra un in
  let instrs = d "sim.profile_instrs" in
  let per_s x s = if s > 0.0 then x /. s else 0.0 in
  let visited = d "select.regions_visited" in
  let post_lines = post un in
  let yard, _, _ = yardstick () in
  let metrics =
    layer
    @ extra_metrics
    @ [ "frontend.src_kb_per_s", per_s (f src_bytes /. 1024.0) (busy "frontend.busy_s");
        "analysis.regions", f (d "analysis.wpst_regions");
        "sim.instrs", f instrs;
        "sim.minstr_per_s", per_s (f instrs /. 1e6) (busy "sim.busy_s");
        "hls.points", f (d "hls.kernel_points");
        "core.select.visited", f visited;
        "core.select.pruned", f (d "select.regions_pruned");
        ( "core.select.prune_ratio",
          if visited > 0 then f (d "select.regions_pruned") /. f visited else 0.0 );
        "fleet.kernels", f (d "fleet.kernels");
        "fleet.clusters", f (d "fleet.clusters");
        "rtl.kernels", f (d "rtl.cosim_kernels");
        "rtl.mismatches", f (d "rtl.cosim_mismatches");
        "memo.hits", f hits;
        "memo.misses", f misses;
        ( "memo.hit_ratio",
          if hits + misses > 0 then f hits /. f (hits + misses) else 0.0 );
        "memo.entries", f entries;
        "memo.store_bytes", f bytes;
        "engine.jobs", f par_jobs;
        "engine.efficiency", w_serial /. (w_par *. f par_jobs);
        "gc.minor_words", gc.minor_words;
        "gc.promoted_words", gc.promoted_words;
        "gc.major_collections", f gc.major_collections;
        "obs.trace_overhead_pct", 100.0 *. ((w_traced /. w_serial) -. 1.0);
        "host.yardstick_minstr_per_s", yard ]
  in
  let lines =
    post_lines
    @ [ Printf.sprintf
          "%s traced: wall %.3f s = layers %.3f s + unattributed %.3f s \
           (parallel %.3f s at %d jobs, serial %.3f s)"
          what w_traced (Spans.layer_total a) a.Spans.unattributed w_par par_jobs
          w_serial ]
    @ List.map
        (fun (l, v) ->
          Printf.sprintf "  layer %-12s self %8.4f s  %5.1f %%" l v
            (100.0 *. v /. w_traced))
        a.Spans.layers
  in
  { attempted = c.attempted;
    failed = c.failed;
    metrics = List.map (fun (n, v) -> metric n "" v) metrics;
    lines }
