(** Per-function analysis context: the paper's profiling/analysis results
    [R], bundled for the accelerator model and candidate selection.

    {!create} derives every fact eagerly (predecessor map, loops, SCEV
    tables, loop dependences, trip counts, DFGs); the queries only read
    them, so a context can be shared by the domains of a pool. *)

type t = {
  program : Cayman_ir.Program.t;
  func : Cayman_ir.Func.t;
  profile : Cayman_sim.Profile.t;
  preds : (string, string list) Hashtbl.t;  (** {!Cayman_ir.Func.preds} *)
  dom : Cayman_analysis.Dominance.t;
  loops : Cayman_analysis.Loops.t;
  live : Cayman_analysis.Liveness.t;
  scev : Cayman_analysis.Scev.t;
  loop_info : (string, Cayman_analysis.Memdep.loop_info) Hashtbl.t;
  dfgs : (string, Dfg.t) Hashtbl.t;
  trips : (string, float) Hashtbl.t;
}

val create :
  Cayman_ir.Program.t -> Cayman_sim.Profile.t -> Cayman_ir.Func.t -> t

val dfg : t -> string -> Dfg.t
val loop_info : t -> string -> Cayman_analysis.Memdep.loop_info option

(** Average profiled trip count, rounded (0 if the loop never entered). *)
val trip : t -> string -> int

val block_exec : t -> string -> int

(** {!Cayman_sim.Profile.region_entries} over the stored predecessor
    map. *)
val region_entries : t -> Cayman_analysis.Region.t -> int

val loop_entries : t -> Cayman_analysis.Loops.loop -> int

(** Contexts for every function reachable from main. *)
val for_program :
  Cayman_ir.Program.t -> Cayman_sim.Profile.t -> (string, t) Hashtbl.t
