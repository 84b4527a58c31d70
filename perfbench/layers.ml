(* The per-layer metrics every traced run reports, and the mapping from
   span names to layers. A layer a workload does not exercise reports
   0. *)

let per_layer =
  [ "frontend.busy_s", "s";
    "frontend.src_kb_per_s", "KB/s";
    "analysis.busy_s", "s";
    "analysis.regions", "count";
    "sim.busy_s", "s";
    "sim.instrs", "count";
    "sim.minstr_per_s", "Minstr/s";
    "hls.busy_s", "s";
    "hls.points", "count";
    "hls.netlist_s", "s";
    "core.select.busy_s", "s";
    "core.select.dp_s", "s";
    "core.select.visited", "count";
    "core.select.pruned", "count";
    "core.select.prune_ratio", "ratio";
    "core.select.frontier", "count";
    "baselines.busy_s", "s";
    "core.merge.busy_s", "s";
    "fleet.busy_s", "s";
    "fleet.kernels", "count";
    "fleet.clusters", "count";
    "fleet.accels", "count";
    "rtl.lint_s", "s";
    "rtl.cosim_s", "s";
    "rtl.kernels", "count";
    "rtl.lint_findings", "count";
    "rtl.mismatches", "count";
    "memo.busy_s", "s";
    "memo.hits", "count";
    "memo.misses", "count";
    "memo.hit_ratio", "ratio";
    "memo.entries", "count";
    "memo.store_bytes", "bytes";
    "engine.jobs", "count";
    "engine.efficiency", "ratio";
    "serve.cache_hits", "count";
    "serve.cache_misses", "count";
    "serve.repeat_share", "ratio";
    "serve.queue_depth_max", "count";
    "serve.shed", "count";
    "serve.write_buf_hwm", "bytes";
    "serve.repeat_p50_ms", "ms";
    "serve.repeat_tail_ms", "ms";
    "serve.fresh_p50_ms", "ms";
    "gc.minor_words", "words";
    "gc.promoted_words", "words";
    "gc.major_collections", "count";
    "quality.speedup_geomean", "x";
    "quality.area_saving_pct", "%";
    "obs.trace_overhead_pct", "%";
    "obs.traced_wall_s", "s";
    "unattributed_s", "s";
    "host.yardstick_minstr_per_s", "Minstr/s" ]

(* Layer of a span name: the benchmark's own spans are named after their
   layer; the program's Obs.Trace spans (imported where a call cannot be
   wrapped from outside) map by name. [None] is glue. *)
let layer_of = function
  | ( "frontend" | "analysis" | "sim" | "hls" | "core.select" | "baselines"
    | "core.merge" | "fleet" | "rtl.lint" | "rtl.cosim" | "memo" | "serve" )
    as layer ->
    Some layer
  | "netlist" -> Some "hls"
  | "frontend.compile" | "frontend.parse" | "frontend.lower"
  | "frontend.validate" ->
    Some "frontend"
  | "core.analyze" | "analysis.ifconv" | "analysis.simplify"
  | "analysis.wpst" | "hls.ctx" ->
    Some "analysis"
  | "sim.interp" -> Some "sim"
  | "select.gen-region" | "hls.dse" | "hls.netlist" -> Some "hls"
  | "select" | "select.gen" | "select.prune-walk" | "select.dp" ->
    Some "core.select"
  | "merge" -> Some "core.merge"
  | "fleet.run" | "fleet.collect" | "fleet.merge" -> Some "fleet"
  | "engine.pool-chunk" -> Some "engine"
  | _ -> None

(* Summed duration of spans named [names], skipping spans nested inside
   another span of the same set (no double counting). *)
let inclusive names spans =
  let module Spans = Perfbench_core.Spans in
  let chosen =
    List.filter (fun (s : Spans.span) -> List.mem s.Spans.name names) spans
  in
  let sorted =
    List.sort (fun (a : Spans.span) b -> compare a.Spans.start b.Spans.start) chosen
  in
  let total, _ =
    List.fold_left
      (fun (total, until) (s : Spans.span) ->
        if s.Spans.stop <= until then total, until
        else total +. (s.Spans.stop -. s.Spans.start), s.Spans.stop)
      (0.0, neg_infinity) sorted
  in
  total

let busy (a : Perfbench_core.Spans.attribution) layer =
  Option.value ~default:0.0 (List.assoc_opt layer a.Perfbench_core.Spans.layers)

(* The layer metrics read off one traced attribution. *)
let of_attribution (a : Perfbench_core.Spans.attribution) spans =
  let b = busy a in
  [ "frontend.busy_s", b "frontend";
    "analysis.busy_s", b "analysis";
    "sim.busy_s", b "sim";
    "hls.busy_s", b "hls";
    "hls.netlist_s", inclusive [ "netlist" ] spans;
    "core.select.busy_s", inclusive [ "core.select"; "select" ] spans;
    "core.select.dp_s", b "core.select";
    "baselines.busy_s", b "baselines";
    "core.merge.busy_s", b "core.merge";
    "fleet.busy_s", b "fleet";
    "rtl.lint_s", b "rtl.lint";
    "rtl.cosim_s", b "rtl.cosim";
    "memo.busy_s", b "memo";
    "obs.traced_wall_s", a.Perfbench_core.Spans.wall;
    "unattributed_s", a.Perfbench_core.Spans.unattributed ]
