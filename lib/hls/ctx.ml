module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

(* Per-function bundle of every analysis the accelerator model consumes:
   the paper's "profiling/analysis results R". Everything is computed in
   [create]; afterwards the bundle is only read, by several domains at
   once during selection. *)
type t = {
  program : Ir.Program.t;
  func : Ir.Func.t;
  profile : Sim.Profile.t;
  preds : (string, string list) Hashtbl.t;
  dom : An.Dominance.t;
  loops : An.Loops.t;
  live : An.Liveness.t;
  scev : An.Scev.t;
  loop_info : (string, An.Memdep.loop_info) Hashtbl.t;
  dfgs : (string, Dfg.t) Hashtbl.t;
  trips : (string, float) Hashtbl.t;
}

let create program profile (func : Ir.Func.t) =
  let preds = Ir.Func.preds func in
  let dom = An.Dominance.dominators func in
  let loops = An.Loops.find func dom in
  let live = An.Liveness.compute func in
  let scev = An.Scev.create func loops in
  let loop_info = Hashtbl.create 8 in
  let trips = Hashtbl.create 8 in
  List.iter
    (fun (l : An.Loops.loop) ->
      Hashtbl.replace loop_info l.An.Loops.header
        (An.Memdep.analyze_loop func live scev l);
      Hashtbl.replace trips l.An.Loops.header
        (Sim.Profile.avg_trip ~preds func profile l))
    loops;
  let dfgs = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.Block.t) ->
      Hashtbl.replace dfgs b.Ir.Block.label (Dfg.of_block b))
    func.Ir.Func.blocks;
  { program; func; profile; preds; dom; loops; live; scev; loop_info; dfgs;
    trips }

let dfg t label = Hashtbl.find t.dfgs label

let loop_info t header = Hashtbl.find_opt t.loop_info header

(* Average trip count, rounded to at least 1 when the loop ran at all. *)
let trip t header =
  match Hashtbl.find_opt t.trips header with
  | Some x when x > 0.0 -> max 1 (int_of_float (Float.round x))
  | Some _ | None -> 0

let block_exec t label =
  Sim.Profile.block_exec t.profile ~func:t.func.Ir.Func.name ~label

let region_entries t r =
  Sim.Profile.region_entries ~preds:t.preds t.func t.profile r

(* Entries into a loop from outside it. *)
let loop_entries t (l : An.Loops.loop) =
  List.fold_left
    (fun acc p ->
      if An.Loops.String_set.mem p l.An.Loops.blocks then acc
      else
        acc
        + Sim.Profile.edge_exec t.profile ~func:t.func.Ir.Func.name ~src:p
            ~dst:l.An.Loops.header)
    0
    (try Hashtbl.find t.preds l.An.Loops.header with Not_found -> [])

(* All analysis contexts of a program, keyed by function name, restricted
   to functions reachable from main. *)
let m_ctxs = Obs.Metrics.counter "hls.ctxs_built"

let for_program program profile =
  Obs.Trace.span ~cat:"hls" "hls.ctx" (fun () ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun name ->
          match Ir.Program.find_func program name with
          | Some f -> Hashtbl.replace tbl name (create program profile f)
          | None -> ())
        (An.Wpst.reachable_funcs program);
      Obs.Metrics.add m_ctxs (Hashtbl.length tbl);
      tbl)
