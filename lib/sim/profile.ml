module Ir = Cayman_ir
module An = Cayman_analysis

type t = {
  block_exec : (string * string, int ref) Hashtbl.t;
  edge_exec : (string * string * string, int ref) Hashtbl.t;
  call_count : (string, int ref) Hashtbl.t;
  mutable total_cycles : int;
  mutable total_instrs : int;
}

let create () =
  { block_exec = Hashtbl.create 256;
    edge_exec = Hashtbl.create 256;
    call_count = Hashtbl.create 16;
    total_cycles = 0;
    total_instrs = 0 }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let note_block t ~func ~label = bump t.block_exec (func, label)
let note_edge t ~func ~src ~dst = bump t.edge_exec (func, src, dst)
let note_call t func = bump t.call_count func

(* Counter-slot variant of [bump] for the staged interpreter: returns
   the live counter so the caller can cache it and skip the hash lookup
   on subsequent bumps. A fresh slot performs the same single
   [Hashtbl.replace] as [bump]'s first insertion, so the table layout
   (and hence its Marshal bytes) stays identical between engines. *)
let slot tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace tbl key r;
    r

let block_slot t ~func ~label = slot t.block_exec (func, label)
let edge_slot t ~func ~src ~dst = slot t.edge_exec (func, src, dst)
let call_slot t func = slot t.call_count func

let add_cycles t c = t.total_cycles <- t.total_cycles + c
let add_instrs t n = t.total_instrs <- t.total_instrs + n

let block_exec t ~func ~label =
  match Hashtbl.find_opt t.block_exec (func, label) with
  | Some r -> !r
  | None -> 0

let edge_exec t ~func ~src ~dst =
  match Hashtbl.find_opt t.edge_exec (func, src, dst) with
  | Some r -> !r
  | None -> 0

let func_calls t func =
  match Hashtbl.find_opt t.call_count func with
  | Some r -> !r
  | None -> 0

let total_cycles t = t.total_cycles
let total_instrs t = t.total_instrs
let total_seconds t = Cpu_model.seconds_of_cycles t.total_cycles

(* Aggregate totals, re-exported through the shared Obs.Metrics registry
   (once per completed profiling run, from Interp.run) so Eq. (1)'s
   inputs appear in `cayman stats` next to every other phase instead of
   living only in this one-off structure. All are deterministic facts of
   the interpreted program, hence counters. *)
let m_runs = Obs.Metrics.counter "sim.profile_runs"
let m_cycles = Obs.Metrics.counter "sim.profile_cycles"
let m_instrs = Obs.Metrics.counter "sim.profile_instrs"
let m_calls = Obs.Metrics.counter "sim.profile_calls"
let m_block_execs = Obs.Metrics.counter "sim.profile_block_execs"
let m_distinct_blocks = Obs.Metrics.counter "sim.profile_distinct_blocks"

let publish_metrics t =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_cycles t.total_cycles;
  Obs.Metrics.add m_instrs t.total_instrs;
  Obs.Metrics.add m_calls
    (Hashtbl.fold (fun _ r acc -> acc + !r) t.call_count 0);
  Obs.Metrics.add m_block_execs
    (Hashtbl.fold (fun _ r acc -> acc + !r) t.block_exec 0);
  Obs.Metrics.add m_distinct_blocks (Hashtbl.length t.block_exec)

(* Cycles attributed to a block across the run: executions times its
   static cost. Call instructions contribute only their local overhead;
   callee time is attributed to the callee's own blocks. *)
let block_cycles (f : Ir.Func.t) t ~label =
  let b = Ir.Func.block_exn f label in
  block_exec t ~func:f.Ir.Func.name ~label * Cpu_model.block_cycles b

(* Total host cycles spent inside the region's own blocks (callee time
   excluded; regions containing calls are never offloaded). *)
let region_cycles (f : Ir.Func.t) t (r : An.Region.t) =
  An.Region.String_set.fold
    (fun label acc -> acc + block_cycles f t ~label)
    r.An.Region.blocks 0

(* Number of executions of the region: entries into its entry block from
   outside the region. The whole-function region counts invocations. *)
let region_entries (f : Ir.Func.t) t (r : An.Region.t) =
  match r.An.Region.kind with
  | An.Region.Whole_function -> func_calls t f.Ir.Func.name
  | An.Region.Basic_block ->
    block_exec t ~func:f.Ir.Func.name ~label:r.An.Region.entry
  | An.Region.Loop_region | An.Region.Cond_region ->
    let preds = Ir.Func.preds f in
    let outside =
      List.filter
        (fun p -> not (An.Region.String_set.mem p r.An.Region.blocks))
        (try Hashtbl.find preds r.An.Region.entry with Not_found -> [])
    in
    List.fold_left
      (fun acc p ->
        acc + edge_exec t ~func:f.Ir.Func.name ~src:p ~dst:r.An.Region.entry)
      0 outside

(* Average trip count of a loop: body entries per loop entry. *)
let avg_trip (f : Ir.Func.t) t (l : An.Loops.loop) =
  let func = f.Ir.Func.name in
  let back =
    List.fold_left
      (fun acc latch ->
        acc + edge_exec t ~func ~src:latch ~dst:l.An.Loops.header)
      0 l.An.Loops.latches
  in
  let preds = Ir.Func.preds f in
  let entries =
    List.fold_left
      (fun acc p ->
        if An.Loops.String_set.mem p l.An.Loops.blocks then acc
        else acc + edge_exec t ~func ~src:p ~dst:l.An.Loops.header)
      0
      (try Hashtbl.find preds l.An.Loops.header with Not_found -> [])
  in
  if entries = 0 then 0.0
  else
    let body_iters = back + entries in
    (* back edges give iterations after the first; loops whose body never
       runs (zero-trip) contribute an entry but no back edge. Iterations =
       header->body edge executions. *)
    let body_edges =
      let header_block = Ir.Func.block_exn f l.An.Loops.header in
      List.fold_left
        (fun acc s ->
          if An.Loops.String_set.mem s l.An.Loops.blocks then
            acc + edge_exec t ~func ~src:l.An.Loops.header ~dst:s
          else acc)
        0
        (Ir.Block.succs header_block)
    in
    let iters = if body_edges > 0 then body_edges else body_iters in
    float_of_int iters /. float_of_int entries
