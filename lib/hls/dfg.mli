(** Per-block data-flow graphs.

    Nodes are the block's instructions (by index). Edges are register
    def-use dependencies plus conservative ordering between same-base
    memory accesses. Registers read before any local definition are the
    DFG's live-in inputs. *)

type t = {
  block : Cayman_ir.Block.t;
  instrs : Cayman_ir.Instr.t array;
  preds : int list array;
  live_in_uses : (string, int list) Hashtbl.t;
  last_def : (string, int) Hashtbl.t;
  mem : int list;  (** load/store nodes, in program order *)
  units : (Cayman_ir.Op.unit_kind * int) list;
      (** unit kinds used by compute nodes *)
  n_defs : int;  (** instructions that define a register *)
}

(** Builds the graph and its node summaries ([mem], [units], [n_defs]);
    the queries below read them. *)
val of_block : Cayman_ir.Block.t -> t
val size : t -> int

(** Indices of load/store nodes, in program order (a lookup). *)
val mem_nodes : t -> int list

val has_call : t -> bool

(** Multiset of datapath unit kinds used by compute nodes (stable order; a
    lookup). *)
val unit_counts : t -> (Cayman_ir.Op.unit_kind * int) list

(** Longest path from any of [sources] to [sink] (inclusive of both ends'
    weights); [None] if unreachable. Used for recurrence-MII queries. *)
val longest_path :
  t -> weight:(int -> float) -> sources:int list -> sink:int -> float option

val uses_of_live_in : t -> string -> int list
val def_of : t -> string -> int option
