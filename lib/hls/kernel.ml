module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

(* A synthesis-planning invariant was violated: a bug in this module,
   not in the input region. The message names the offending construct. *)
exception Internal_error of string

type mode =
  | Heuristic
  | Coupled_only
  | Scan_only
  | Scratchpad_preferred
  | Decoupled_preferred

type config = {
  unroll : int;
  pipeline : bool;
  mode : mode;
}

type iface_counts = {
  n_coupled : int;
  n_decoupled : int;
  n_scratchpad : int;
}

let no_ifaces = { n_coupled = 0; n_decoupled = 0; n_scratchpad = 0 }

type point = {
  config : config;
  accel_cycles : float;
  cpu_cycles : int;
  invocations : int;
  area : float;
  n_seq_blocks : int;
  n_pipelined : int;
  ifaces : iface_counts;
  units : (Ir.Op.unit_kind * int) list;
  sp_words : int;
  n_regs : int;
}

let mode_to_string = function
  | Heuristic -> "heuristic"
  | Coupled_only -> "coupled-only"
  | Scan_only -> "scan-only"
  | Scratchpad_preferred -> "scratchpad-preferred"
  | Decoupled_preferred -> "decoupled-preferred"

let config_to_string c =
  Printf.sprintf "u%d%s/%s" c.unroll
    (if c.pipeline then "+pipe" else "+seq")
    (mode_to_string c.mode)

(* Configurations explored by the fast strategy of Section III-C: the
   sequential design, the pipelined design, and pipelined designs with
   increasing unroll factors (applied only to loops without carried
   dependencies). For the full model the sweep also offers stream-only
   interface variants, letting the selection DP trade the scratchpad's
   parallelism against the decoupled stream's cheap area when the
   beta-rule alone would over-commit to buffers. *)
let default_configs mode =
  let base =
    [ { unroll = 1; pipeline = false; mode };
      { unroll = 1; pipeline = true; mode };
      { unroll = 2; pipeline = true; mode };
      { unroll = 4; pipeline = true; mode };
      { unroll = 8; pipeline = true; mode } ]
  in
  match mode with
  | Heuristic ->
    base
    @ [ { unroll = 1; pipeline = true; mode = Decoupled_preferred };
        { unroll = 4; pipeline = true; mode = Decoupled_preferred } ]
  | Coupled_only | Scan_only | Scratchpad_preferred | Decoupled_preferred ->
    base

let max_scratchpad_words = 4096

let default_beta = 4.0

(* --- helpers --- *)

(* A loop is pipelineable when it is innermost with a straight-line
   body: either the canonical header/body/latch shape, or the two-block
   shape left after CFG simplification fuses the body into the latch. *)
let pipeline_body (ctx : Ctx.t) (l : An.Loops.loop) =
  if not (An.Loops.is_innermost ctx.Ctx.loops l) then None
  else
    match l.An.Loops.latches with
    | [ latch ] ->
      let body =
        An.Loops.String_set.elements
          (An.Loops.String_set.remove l.An.Loops.header
             (An.Loops.String_set.remove latch l.An.Loops.blocks))
      in
      (match body with
       | [ b ] -> Some b
       | [] -> if String.equal latch l.An.Loops.header then None else Some latch
       | _ :: _ :: _ -> None)
    | [] | _ :: _ :: _ -> None

let unroll_factor (ctx : Ctx.t) config (l : An.Loops.loop) =
  if config.unroll <= 1 then 1
  else
    match Ctx.loop_info ctx l.An.Loops.header with
    | Some info when not (An.Memdep.has_carried_dep info) ->
      let trip = Ctx.trip ctx l.An.Loops.header in
      if trip >= config.unroll then config.unroll else 1
    | Some _ | None -> 1

(* --- per-region facts --- *)

(* One memory access of a region with everything the interface decision
   reads that no configuration changes. *)
type access = {
  ac_label : string;
  ac_pos : int;
  ac_base : string;
  ac_is_store : bool;
  ac_fp : int option;  (* footprint under the region's trip counts *)
  ac_pattern : An.Scev.pattern;
  ac_execs : int;  (* executions of the access's block *)
}

(* What a region offers every configuration: derived once per
   [estimate_all] call and read by each configuration's decisions. *)
type facts = {
  x_region : An.Region.t;
  x_has_call : bool;
  x_pipe_loops : (An.Loops.loop * string) list;
      (* executed pipelineable loops inside the region, with body block *)
  x_accesses : access list;
  x_cycles : int;
  x_entries : int;
}

let region_facts (ctx : Ctx.t) (r : An.Region.t) =
  let blocks = r.An.Region.blocks in
  let has_call =
    An.Region.String_set.exists
      (fun label -> Dfg.has_call (Ctx.dfg ctx label))
      blocks
  in
  let inside (l : An.Loops.loop) =
    An.Loops.String_set.subset l.An.Loops.blocks blocks
  in
  let pipe_loops =
    if has_call then []
    else
      List.filter_map
        (fun l ->
          if not (inside l) then None
          else
            match pipeline_body ctx l with
            | Some body when Ctx.trip ctx l.An.Loops.header > 0 ->
              Some (l, body)
            | Some _ | None -> None)
        ctx.Ctx.loops
  in
  let region_trips label =
    List.filter_map
      (fun (l : An.Loops.loop) ->
        let h = l.An.Loops.header in
        if inside l then Some (h, Ctx.trip ctx h) else None)
      (An.Scev.loop_nest ctx.Ctx.scev label)
  in
  (* Every memory access of the region, last block's last access first. *)
  let accesses =
    if has_call then []
    else
      An.Region.String_set.fold
        (fun label acc ->
          let dfg = Ctx.dfg ctx label in
          let trips = region_trips label in
          let execs = Ctx.block_exec ctx label in
          List.fold_left
            (fun acc i ->
              let instr = dfg.Dfg.instrs.(i) in
              let base =
                match Ir.Instr.mem_ref_of instr with
                | Some m -> m.Ir.Instr.base
                | None ->
                  raise
                    (Internal_error
                       (Printf.sprintf
                          "hls.kernel: DFG memory node %d of block %s has no \
                           memory reference"
                          i label))
              in
              let is_store =
                match instr with
                | Ir.Instr.Store _ -> true
                | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
                | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
                | Ir.Instr.Call _ -> false
              in
              { ac_label = label; ac_pos = i; ac_base = base;
                ac_is_store = is_store;
                ac_fp =
                  An.Scev.footprint ctx.Ctx.scev ~block:label ~pos:i ~trips;
                ac_pattern = An.Scev.classify ctx.Ctx.scev ~block:label ~pos:i;
                ac_execs = execs }
              :: acc)
            acc (Dfg.mem_nodes dfg))
        blocks []
  in
  { x_region = r; x_has_call = has_call; x_pipe_loops = pipe_loops;
    x_accesses = accesses;
    x_cycles = Sim.Profile.region_cycles ctx.Ctx.func ctx.Ctx.profile r;
    x_entries = Ctx.region_entries ctx r }

(* --- interface assignment --- *)

type sp_array = {
  sp_base : string;
  sp_words : int;
  sp_loaded : bool;
  sp_stored : bool;
  sp_banks : int;
}

type assignment = {
  table : (string * int, Iface.kind) Hashtbl.t;
  sp_arrays : sp_array list;
}

let iface_of assignment label i =
  match Hashtbl.find_opt assignment.table (label, i) with
  | Some k -> k
  | None -> Iface.Coupled

(* Decide the interface of every memory access in the region per the
   paper's heuristic, applied per array: an array whose total access count
   over one region execution exceeds beta times its statically-known
   footprint is cached in a scratchpad (reuse across accesses justifies
   the buffer); remaining stream accesses inside pipelined loops become
   decoupled; everything else stays coupled. *)
let assign_interfaces facts ~beta ~config
    ~(pipelined : (An.Loops.loop * string * int) list) =
  let table = Hashtbl.create 32 in
  let invocations = max 1 facts.x_entries in
  let body_of = List.map (fun (l, body, u) -> body, (l, u)) pipelined in
  (* Per-array caching decision: total accesses per invocation vs union
     footprint, all accesses statically analyzable. *)
  let sp_bases : (string, int) Hashtbl.t = Hashtbl.create 4 in
  (match config.mode with
   | Heuristic | Scratchpad_preferred ->
     let by_base : (string, (int * int option) list) Hashtbl.t =
       Hashtbl.create 4
     in
     List.iter
       (fun ac ->
         let base = ac.ac_base in
         let prev = try Hashtbl.find by_base base with Not_found -> [] in
         Hashtbl.replace by_base base ((ac.ac_execs, ac.ac_fp) :: prev))
       facts.x_accesses;
     Hashtbl.iter
       (fun base entries ->
         let all_static = List.for_all (fun (_, fp) -> fp <> None) entries in
         if all_static then begin
           let total =
             List.fold_left (fun acc (e, _) -> acc + e) 0 entries
           in
           let union_fp =
             List.fold_left
               (fun acc (_, fp) -> max acc (Option.value fp ~default:0))
               0 entries
           in
           let per_inv = float_of_int total /. float_of_int invocations in
           let profitable =
             match config.mode with
             | Scratchpad_preferred -> true
             | Heuristic | Coupled_only | Scan_only | Decoupled_preferred ->
               per_inv >= beta *. float_of_int union_fp
           in
           if union_fp > 0 && union_fp <= max_scratchpad_words && profitable
           then Hashtbl.replace sp_bases base union_fp
         end)
       by_base
   | Coupled_only | Scan_only | Decoupled_preferred -> ());
  (* Per-access assignment. *)
  let sp_info : (string, int * bool * bool * int) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun ac ->
      let base = ac.ac_base and is_store = ac.ac_is_store and fp = ac.ac_fp in
      let in_pipe = List.assoc_opt ac.ac_label body_of in
      let kind =
        match config.mode with
        | Scan_only -> Iface.Scan
        | Coupled_only -> Iface.Coupled
        | Decoupled_preferred ->
          (match ac.ac_pattern with
           | An.Scev.Invariant | An.Scev.Stream _ -> Iface.Decoupled
           | An.Scev.Irregular -> Iface.Coupled)
        | Scratchpad_preferred | Heuristic ->
          if Hashtbl.mem sp_bases base && fp <> None then Iface.Scratchpad
          else begin
            match in_pipe, ac.ac_pattern, config.mode with
            | Some _, (An.Scev.Invariant | An.Scev.Stream _), Heuristic ->
              Iface.Decoupled
            | _, _, _ -> Iface.Coupled
          end
      in
      Hashtbl.replace table (ac.ac_label, ac.ac_pos) kind;
      match kind with
      | Iface.Scratchpad ->
        let words =
          try Hashtbl.find sp_bases base
          with Not_found -> Option.value fp ~default:max_scratchpad_words
        in
        let banks =
          match in_pipe with
          | Some (_, u) -> u
          | None -> 1
        in
        let words0, loaded, stored, banks0 =
          try Hashtbl.find sp_info base with Not_found -> 0, false, false, 1
        in
        Hashtbl.replace sp_info base
          ( max words0 words,
            loaded || not is_store,
            stored || is_store,
            max banks0 banks )
      | Iface.Coupled | Iface.Decoupled | Iface.Scan -> ())
    facts.x_accesses;
  let sp_arrays =
    Hashtbl.fold
      (fun sp_base (sp_words, sp_loaded, sp_stored, sp_banks) acc ->
        { sp_base; sp_words; sp_loaded; sp_stored; sp_banks } :: acc)
      sp_info []
    |> List.sort (fun a b -> String.compare a.sp_base b.sp_base)
  in
  { table; sp_arrays }

(* --- synthesis plan --- *)

(* The structural decisions for one kernel configuration: which loops are
   pipelined (with body block and unroll factor), which interface serves
   each memory access, and the scratchpad arrays. Shared by the
   estimator and the RTL netlist backend. *)
type plan = {
  p_region : An.Region.t;
  p_config : config;
  p_pipelined : (An.Loops.loop * string * int) list;
  p_assignment : assignment;
  p_seq_blocks : string list;
}

(* A configuration's decisions on the region's facts. *)
let decide (ctx : Ctx.t) facts ~beta config =
  (* A malformed configuration (non-positive unroll, e.g. from a fault
     campaign's corrupted input) is unsynthesizable, not a crash. *)
  if config.unroll <= 0 || facts.x_has_call then None
  else begin
    let pipelined =
      if not config.pipeline then []
      else
        List.map
          (fun (l, body) -> l, body, unroll_factor ctx config l)
          facts.x_pipe_loops
    in
    let assignment = assign_interfaces facts ~beta ~config ~pipelined in
    let pipe_blocks =
      List.fold_left
        (fun acc ((l : An.Loops.loop), _, _) ->
          An.Region.String_set.union acc l.An.Loops.blocks)
        An.Region.String_set.empty pipelined
    in
    let r = facts.x_region in
    let seq_blocks =
      An.Region.String_set.elements
        (An.Region.String_set.diff r.An.Region.blocks pipe_blocks)
    in
    Some
      { p_region = r; p_config = config; p_pipelined = pipelined;
        p_assignment = assignment; p_seq_blocks = seq_blocks }
  end

let plan (ctx : Ctx.t) (r : An.Region.t) ?(beta = default_beta) config =
  decide ctx (region_facts ctx r) ~beta config

let plan_iface p label i = iface_of p.p_assignment label i

let plan_sp_arrays p =
  List.map (fun sp -> sp.sp_base, sp.sp_words) p.p_assignment.sp_arrays

type sp_info = {
  spi_base : string;
  spi_words : int;
  spi_loaded : bool;
  spi_stored : bool;
  spi_banks : int;
}

let plan_sp_info p =
  List.map
    (fun sp ->
      { spi_base = sp.sp_base; spi_words = sp.sp_words;
        spi_loaded = sp.sp_loaded; spi_stored = sp.sp_stored;
        spi_banks = sp.sp_banks })
    p.p_assignment.sp_arrays

(* DMA cycles charged once per kernel invocation: each scratchpad array
   transfers its buffer in each used direction at the engine's burst
   rate. Shared by [estimate] and the netlist/RTL-simulation layers. *)
let plan_dma_per_inv p =
  List.fold_left
    (fun acc sp ->
      let dirs =
        (if sp.sp_loaded then 1 else 0) + if sp.sp_stored then 1 else 0
      in
      acc
      + dirs
        * ((sp.sp_words + Tech.dma_words_per_cycle - 1)
           / Tech.dma_words_per_cycle))
    0 p.p_assignment.sp_arrays

(* --- estimation --- *)

let merge_units lists =
  let tbl = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (k, c) ->
       let prev = try Hashtbl.find tbl k with Not_found -> 0 in
       Hashtbl.replace tbl k (prev + c)))
    lists;
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt tbl k with
      | Some c when c > 0 -> Some (k, c)
      | Some _ | None -> None)
    Ir.Op.all_unit_kinds

let units_area units =
  List.fold_left (fun acc (k, c) -> acc +. (float_of_int c *. Tech.area k)) 0.0 units

let scale_units mult units = List.map (fun (k, c) -> k, c * mult) units

let m_estimates = Obs.Metrics.counter "hls.kernel_estimates"
let m_points = Obs.Metrics.counter "hls.kernel_points"

let fp_schedule = Obs.Faultpoint.register "schedule"

let estimate_facts (ctx : Ctx.t) facts ~beta config =
  Obs.Faultpoint.hit fp_schedule;
  Obs.Metrics.incr m_estimates;
  match decide ctx facts ~beta config with
  | None -> None
  | Some pl ->
    let cpu_cycles = facts.x_cycles in
    let invocations = facts.x_entries in
    if cpu_cycles <= 0 || invocations <= 0 then None
    else begin
      let pipelined = pl.p_pipelined in
      let assignment = pl.p_assignment in
      let seq_blocks = pl.p_seq_blocks in
      (* sequential blocks *)
      let seq_cycles = ref 0.0 in
      let seq_area = ref 0.0 in
      let units_acc = ref [] in
      let regs_acc = ref 0 in
      let n_seq_blocks = ref 0 in
      let count_c = ref 0 and count_d = ref 0 and count_s = ref 0 in
      let count_ifaces label dfg mult =
        List.iter
          (fun i ->
            match iface_of assignment label i with
            | Iface.Coupled | Iface.Scan -> count_c := !count_c + mult
            | Iface.Decoupled -> count_d := !count_d + mult
            | Iface.Scratchpad -> count_s := !count_s + mult)
          (Dfg.mem_nodes dfg)
      in
      let iface_area label dfg mult =
        List.fold_left
          (fun acc i ->
            acc
            +. (float_of_int mult
                *. Iface.per_access_area (iface_of assignment label i)))
          0.0 (Dfg.mem_nodes dfg)
      in
      List.iter
        (fun label ->
          let dfg = Ctx.dfg ctx label in
          let execs = Ctx.block_exec ctx label in
          let iface i = iface_of assignment label i in
          (* scratchpads are dual-ported SRAM *)
          let sched = Schedule.run ~sp_banks:2 dfg ~iface in
          seq_cycles :=
            !seq_cycles
            +. (float_of_int execs
                *. float_of_int (sched.Schedule.length + Tech.seq_ctrl_cycles));
          let n_defs = dfg.Dfg.n_defs in
          seq_area :=
            !seq_area
            +. units_area (Dfg.unit_counts dfg)
            +. (float_of_int n_defs *. Tech.register_area)
            +. Tech.block_ctrl_area
            +. (float_of_int sched.Schedule.length *. Tech.fsm_state_area)
            +. iface_area label dfg 1;
          if Dfg.size dfg > 0 then incr n_seq_blocks;
          units_acc := Dfg.unit_counts dfg :: !units_acc;
          regs_acc := !regs_acc + n_defs;
          count_ifaces label dfg 1)
        seq_blocks;
      (* pipelined loops *)
      let pipe_cycles = ref 0.0 in
      let pipe_area = ref 0.0 in
      List.iter
        (fun ((l : An.Loops.loop), body, u) ->
          let dfg = Ctx.dfg ctx body in
          let iface i = iface_of assignment body i in
          (* dual-ported SRAM, banked by the unroll factor *)
          let sched = Schedule.run ~sp_banks:(2 * u) dfg ~iface in
          let depth = sched.Schedule.length + 1 in
          let ii = Pipeline.ii ctx dfg ~iface l ~unroll:u ~sp_banks:(2 * u) in
          let trip = max 1 (Ctx.trip ctx l.An.Loops.header) in
          let groups = (trip + u - 1) / u in
          let entries = max 1 (Ctx.loop_entries ctx l) in
          pipe_cycles :=
            !pipe_cycles
            +. (float_of_int entries
                *. float_of_int (depth + (ii * (groups - 1)) + 2));
          let n_defs = dfg.Dfg.n_defs in
          pipe_area :=
            !pipe_area
            +. (float_of_int u *. units_area (Dfg.unit_counts dfg))
            +. (float_of_int (u * n_defs) *. Tech.register_area)
            +. Tech.block_ctrl_area
            +. (float_of_int depth *. Tech.pipeline_stage_area)
            +. iface_area body dfg u;
          units_acc := scale_units u (Dfg.unit_counts dfg) :: !units_acc;
          regs_acc := !regs_acc + (u * n_defs) + (2 * depth);
          count_ifaces body dfg u)
        pipelined;
      (* scratchpad DMA and buffers *)
      let dma_per_inv = plan_dma_per_inv pl in
      let sp_area =
        List.fold_left
          (fun acc sp ->
            acc
            +. (float_of_int sp.sp_words *. Tech.scratchpad_word_area)
            +. (float_of_int (sp.sp_banks - 1) *. Tech.scratchpad_bank_overhead))
          0.0 assignment.sp_arrays
        +. if assignment.sp_arrays = [] then 0.0 else Tech.dma_engine_area
      in
      let accel_cycles =
        !seq_cycles +. !pipe_cycles
        +. (float_of_int invocations
            *. float_of_int (dma_per_inv + Tech.invoke_overhead_cycles))
      in
      let area =
        !seq_area +. !pipe_area +. sp_area +. Tech.accel_wrapper_area
      in
      Some
        { config;
          accel_cycles;
          cpu_cycles;
          invocations;
          area;
          n_seq_blocks = !n_seq_blocks;
          n_pipelined = List.length pipelined;
          ifaces =
            { n_coupled = !count_c; n_decoupled = !count_d;
              n_scratchpad = !count_s };
          units = merge_units !units_acc;
          n_regs = !regs_acc;
          sp_words =
            List.fold_left (fun acc sp -> acc + sp.sp_words) 0
              assignment.sp_arrays }
    end

let estimate (ctx : Ctx.t) (r : An.Region.t) ?(beta = default_beta) config =
  estimate_facts ctx (region_facts ctx r) ~beta config

(* All design points of a kernel for a list of configurations, dropping
   duplicates that collapse to the same (cycles, area). The region's
   facts are derived once for all of them. *)
let estimate_all ctx r ?(beta = default_beta) configs =
  let facts = region_facts ctx r in
  let points =
    List.filter_map (fun c -> estimate_facts ctx facts ~beta c) configs
  in
  let seen = Hashtbl.create 8 in
  let points =
    List.filter
      (fun p ->
        let key = (p.accel_cycles, p.area) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      points
  in
  Obs.Metrics.add m_points (List.length points);
  points

(* Time saved on the host by offloading this kernel, in seconds (can be
   negative when the accelerator is slower than the host). *)
let saved_seconds p =
  Sim.Cpu_model.seconds_of_cycles p.cpu_cycles
  -. (p.accel_cycles /. Tech.accel_freq_hz)
