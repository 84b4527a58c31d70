(* Workload [suite]: the 28 paper benchmarks through the Table II flow,
   cold on an empty memo store, then warm from disk. *)

open Common
module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

let budgets = [ 0.25; 0.65 ]

(* The four selection methods of Table II: memo key, plug-in, the layer
   of the selection span and the layer of the plug-in calls. *)
let methods =
  [ ( Core.Cayman.gen_key Hls.Kernel.Heuristic,
      Core.Cayman.gen Hls.Kernel.Heuristic, "core.select", "hls" );
    ( Core.Cayman.gen_key Hls.Kernel.Coupled_only,
      Core.Cayman.gen Hls.Kernel.Coupled_only, "core.select", "hls" );
    "baseline.novia", Cayman_baselines.Novia.gen, "baselines", "baselines";
    "baseline.qscores", Cayman_baselines.Qscores.gen, "baselines", "baselines" ]

(* A digest of everything a profile records about [program]: totals,
   call counts, block and edge execution counts. *)
let profile_digest (program : Ir.Program.t) prof =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d\n" (Sim.Profile.total_instrs prof)
    (Sim.Profile.total_cycles prof);
  List.iter
    (fun (f : Ir.Func.t) ->
      let func = f.Ir.Func.name in
      Printf.bprintf b "f %s %d\n" func (Sim.Profile.func_calls prof func);
      List.iter
        (fun (blk : Ir.Block.t) ->
          let label = blk.Ir.Block.label in
          Printf.bprintf b "b %s %d\n" label
            (Sim.Profile.block_exec prof ~func ~label);
          List.iter
            (fun dst ->
              Printf.bprintf b "e %s %s %d\n" label dst
                (Sim.Profile.edge_exec prof ~func ~src:label ~dst))
            (Ir.Block.succs blk))
        f.Ir.Func.blocks)
    program.Ir.Program.funcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let if_convert program =
  Ir.Validate.check_exn program;
  let program = An.Simplify.merge_chains (An.Ifconv.run program) in
  Ir.Validate.check_exn program;
  program

(* Core.Cayman.analyze, decomposed into the public calls it makes so each
   lands in its layer's span. The profile goes through the memo store
   under the same namespace and key as analyze's, so a warm traced pass
   reads it from disk as the untraced one does. Traced.run checks that
   the traced cycle's reports, profile digests and counters (memo disk
   hits and misses included) equal the untraced cycle's and that its
   warm pass runs no interpreter, so a drift of that key fails a check. *)
let analyze_traced program =
  let program = Spans.with_span "analysis" (fun () -> if_convert program) in
  let fuel = Engine.Config.fuel () in
  let interp () =
    Spans.with_span "sim" (fun () ->
        (Sim.Interp.run ~fuel program).Sim.Interp.profile)
  in
  let profile =
    if not (Memo.Store.active ()) then interp ()
    else begin
      let b = Memo.Hash.builder ~ns:"profile" in
      Memo.Hash.str b
        (Digest.to_hex (Digest.string (Ir.Program.to_string program)));
      Memo.Hash.int b fuel;
      let key = Memo.Hash.digest b in
      match
        Spans.with_span "memo" (fun () ->
            (Memo.Store.find ~ns:"profile" ~key : Sim.Profile.t option))
      with
      | Some p ->
        Sim.Profile.publish_metrics p;
        p
      | None ->
        let p = interp () in
        Spans.with_span "memo" (fun () -> Memo.Store.save ~ns:"profile" ~key p);
        p
    end
  in
  let wpst = Spans.with_span "analysis" (fun () -> An.Wpst.build program) in
  let ctxs =
    Spans.with_span "analysis" (fun () -> Hls.Ctx.for_program program profile)
  in
  { Core.Cayman.program;
    profile;
    wpst;
    ctxs;
    t_all = Sim.Profile.total_seconds profile }

type program_result = {
  name : string;
  report : string;  (* every Table II number of the program *)
  digest : string;  (* profile digest *)
  instrs : int;
  speedup : float;  (* Cayman-full at 25% of a tile *)
  saving : float;  (* merge saving at 25% *)
  frontier : int;
  latency : float;
}

let best frontier budget_ratio =
  match
    Core.Solution.best_under
      ~budget:(budget_ratio *. Hls.Tech.cva6_tile_area)
      frontier
  with
  | Some s -> s
  | None -> Core.Solution.empty

let flow ~traced (bench : Suite.benchmark) =
  tick ();
  let t0 = now () in
  let id = bench.Suite.name in
  Spans.with_span ~id "program" @@ fun () ->
  let program = Spans.with_span ~id "frontend" (fun () -> Suite.compile bench) in
  let a =
    if traced then analyze_traced program else Core.Cayman.analyze program
  in
  let frontiers =
    List.map
      (fun (memo_key, gen, layer, gen_layer) ->
        let gen =
          if traced then fun ctx region ->
            Spans.with_span ~id gen_layer (fun () -> gen ctx region)
          else gen
        in
        fst
          (Spans.with_span ~id layer (fun () ->
               Core.Select.select ~memo_key ~gen a.Core.Cayman.ctxs
                 a.Core.Cayman.wpst a.Core.Cayman.profile)))
      methods
  in
  let full, novia, qscores =
    match frontiers with
    | [ full; _coupled; novia; qscores ] -> full, novia, qscores
    | _ -> assert false
  in
  let t_all = a.Core.Cayman.t_all in
  let b = Buffer.create 256 in
  Printf.bprintf b "%s t_all=%h" id t_all;
  let cells =
    List.map
      (fun budget ->
        let s = best full budget in
        let sp = Core.Solution.speedup ~t_all s in
        let sp_novia = Core.Solution.speedup ~t_all (best novia budget) in
        let sp_qs = Core.Solution.speedup ~t_all (best qscores budget) in
        let t = Core.Report.totals s in
        let m =
          Spans.with_span ~id "core.merge" (fun () -> Core.Cayman.merge a s)
        in
        Printf.bprintf b " | %h %h %h %d %d %d %d %d %d %h" sp sp_novia sp_qs
          t.Core.Report.sb t.Core.Report.pr t.Core.Report.c t.Core.Report.d
          t.Core.Report.s t.Core.Report.n_accels m.Core.Merge.saving_pct;
        sp, m.Core.Merge.saving_pct)
      budgets
  in
  let speedup, saving = List.hd cells in
  { name = id;
    report = Buffer.contents b;
    digest = profile_digest a.Core.Cayman.program a.Core.Cayman.profile;
    instrs = Sim.Profile.total_instrs a.Core.Cayman.profile;
    speedup;
    saving;
    frontier = List.length full;
    latency = now () -. t0 }

(* The flow always runs the suite in its own order, so that every seed
   puts the same load on the pool's workers. *)
let pass ~traced =
  timed_pass (fun () -> Engine.Pool.map (flow ~traced) Suite.all)

type cycle = {
  cold : program_result list;
  cold_pass : pass;
  warm_passes : pass list;
}

(* Warm reruns per cycle, each after the in-memory memo layer is
   dropped. *)
let warm_reps = 2

(* Cold pass on a fresh store, then warm reruns from disk, each after
   the in-memory memo layer is dropped. The warm reports must equal the
   cold ones byte for byte. *)
let cycle o c ~traced =
  let dir = fresh_store o in
  let cold, cold_pass = pass ~traced in
  let warm_passes =
    List.init warm_reps (fun _ ->
        Memo.Store.reset_memory ();
        let warm, warm_pass = pass ~traced in
        List.iter2
          (fun (x : program_result) (y : program_result) ->
            check c (x.report = y.report && x.digest = y.digest)
              (Printf.sprintf "suite %s: warm report differs from cold" x.name))
          cold warm;
        warm_pass)
  in
  drop_store dir;
  { cold; cold_pass; warm_passes }

let shuffle seed xs =
  let rng = Random.State.make [| seed; 0x5017e |] in
  List.map (fun x -> Random.State.bits rng, x) xs
  |> List.sort compare |> List.map snd

(* The independent oracle: the reference interpreter's profile of a
   seeded sample of programs must equal the staged engine's. The sample
   is drawn from programs under [max_instrs] executed instructions, to
   keep the slow reference engine's share of a run bounded. *)
let reference_check o c (results : program_result list) =
  let max_instrs = 3_000_000 in
  let eligible = List.filter (fun r -> r.instrs <= max_instrs) results in
  let sample = List.filteri (fun i _ -> i < 2) (shuffle (o.seed + 1) eligible) in
  List.map
    (fun r ->
      let program = if_convert (Suite.compile (Suite.find_exn r.name)) in
      let fuel = Engine.Config.fuel () in
      let t0 = now () in
      let prof =
        (Sim.Interp_reference.run ~fuel program).Sim.Interp_common.profile
      in
      let ok = profile_digest program prof = r.digest in
      check c ok
        (Printf.sprintf "suite %s: staged profile differs from Interp_reference"
           r.name);
      Printf.sprintf "reference check %s: %s (%d instrs, %.2f s)" r.name
        (if ok then "ok" else "MISMATCH")
        r.instrs (now () -. t0))
    sample

(* Set-up: compile the 28 sources, as loading the suite does. *)
let setup () = cpu_it (fun () -> List.iter (fun b -> ignore (Suite.compile b)) Suite.all)

(* Set-ups timed together before each cycle: about 0.1 s. *)
let setup_batch = 10

let quality (results : program_result list) =
  ( Stats.geomean (List.map (fun r -> r.speedup) results),
    Stats.mean (List.map (fun r -> r.saving) results) )

let n_programs = List.length Suite.all

let run o =
  let c = checks () in
  if not o.trace then begin
    ignore (setup ());
    let { cycles; setup_s; rss_mb; _ } =
      repeat_for ~seconds:o.seconds ~setup ~setup_batch (fun () ->
          cycle o c ~traced:false)
    in
    let per_s t = float_of_int n_programs /. t in
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
    let first = List.hd cycles in
    let refs = reference_check o c first.cold in
    let speedup, saving = quality first.cold in
    { attempted = c.attempted;
      failed = c.failed;
      metrics =
        [ metric "setup_s" "s" setup_s
            ~note:(Printf.sprintf "suite load, median of %d batches of %d"
                     (List.length cycles) setup_batch);
          metric "cpu_throughput_per_s" "1/s" (Stats.median thr)
            ~note:(Printf.sprintf "cold programs/s, median of %d passes"
                     (List.length thr));
          metric "warm_cpu_throughput_per_s" "1/s" (Stats.median warm)
            ~note:(Printf.sprintf "warm programs/s, median of %d reruns"
                     (List.length warm));
          metric "peak_rss_mb" "MB" rss_mb
            ~note:(Printf.sprintf "after the first %d cycles" rss_cycles) ];
      lines =
        refs
        @ [ Printf.sprintf
              "quality: speedup geomean %.4f x (Cayman-full, 25%% tile), \
               merge saving %.2f %%"
              speedup saving ]
        @ Report.wall_lines ~what:"cold" ~n:n_programs
            (List.map (fun cy -> cy.cold_pass) cycles)
        @ Report.wall_lines ~what:"warm" ~n:n_programs
            (List.concat_map
               (fun cy -> cy.warm_passes)
               cycles)
        @ Report.latency_lines "per-program cold wall latency" lat }
  end
  else Traced.run c ~what:"suite" ~program_spans:false
      ~untraced:(fun () -> cycle o c ~traced:false)
      ~traced:(fun () -> cycle o c ~traced:true)
      ~passes:(fun cy -> cy.cold_pass, List.hd cy.warm_passes)
      ~extra:(fun cy ->
        let speedup, saving = quality cy.cold in
        let src =
          List.fold_left
            (fun acc (b : Suite.benchmark) -> acc + String.length b.Suite.source)
            0 Suite.all
        in
        [ "quality.speedup_geomean", speedup;
          "quality.area_saving_pct", saving;
          ( "core.select.frontier",
            float_of_int (List.fold_left (fun a r -> a + r.frontier) 0 cy.cold) ) ],
        2 * src)
      ~reports:(fun cy -> List.map (fun r -> r.report ^ " " ^ r.digest) cy.cold)
      ~post:(fun un -> reference_check o c un.cold)
