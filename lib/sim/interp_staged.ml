module Ir = Cayman_ir
open Interp_common

(* Staged (closure-compiled) interpreter engine.

   Each basic block is compiled once per run into a flat array of
   instruction closures, and executing a block is a tight loop of
   indirect calls with no per-instruction match dispatch. Registers live
   in typed, integer-indexed banks ([ints] holds both I32 and Bool —
   booleans as 0/1 — [flts] holds F32). Codegen resolves every operand
   once: a register that a forward must-defined dataflow proves written
   becomes its bank index, an immediate stays a constant. An instruction
   whose operands all resolve that way compiles to one closure written
   out for its opcode and operand shape, which reads and writes the banks
   directly, so nothing is boxed or allocated; a branch on a proven
   register reads the bank in the block loop. Everything else keeps the
   generic closures, which call one reader closure per operand and one
   writer: operands that may be unwritten, whose checked reader raises
   the reference engine's "uninitialized register" error in its
   evaluation order; calls, returns and shapes the benchmarks seldom
   execute (two immediates, a constant index); and, in a
   cache-simulation run, loads and stores, which report every access to
   the cache. Memory bases are resolved to their raw arrays at compile
   time, and constant-index bounds checks are discharged there.

   None of this is allowed to be observable: the engine is only used for
   programs that pass a whole-program static cleanliness check
   ([analyze] below) ruling out every dynamic type error the reference
   engine could raise. Anything unclean — type-inconsistent registers,
   unknown labels/arrays/callees, arity or return-kind mismatches —
   falls back wholesale to {!Interp_reference.run}, which then fails (or
   runs) in exactly the reference way. On the clean subset, profiles,
   observer callbacks, memory effects, return values and exceptions
   (including the exact [Out_of_fuel] boundary and error message bytes)
   match the reference engine operation-for-operation; the differential
   harness in test/test_interp_diff.ml holds both engines to that. *)

(* ------------------------------------------------------------------ *)
(* Static cleanliness analysis                                        *)
(* ------------------------------------------------------------------ *)

exception Unclean

type ret_kind = R_int | R_bool | R_float | R_void

(* Per-register interning record: [uid] indexes the def-bytes, [bidx]
   the typed bank picked by [rty]. *)
type rinfo = { uid : int; bidx : int; rty : Ir.Types.t }

type fmeta = {
  fm_func : Ir.Func.t;
  fm_regs : (string, rinfo) Hashtbl.t;
  fm_nregs : int;
  fm_nints : int;
  fm_nflts : int;
  fm_ret : ret_kind;
}

type pmeta = {
  pm_funcs : (string, fmeta) Hashtbl.t;
  pm_globals : (string, Ir.Types.t * int) Hashtbl.t; (* elem type, size *)
  pm_main : fmeta;
}

let ret_kind_of (ret : Ir.Types.t option) =
  match ret with
  | None -> R_void
  | Some Ir.Types.I32 -> R_int
  | Some Ir.Types.Bool -> R_bool
  | Some Ir.Types.F32 -> R_float

let bank_of (ty : Ir.Types.t) =
  match ty with
  | Ir.Types.I32 | Ir.Types.Bool -> `Int
  | Ir.Types.F32 -> `Float

(* Intern a register occurrence; the same id must always carry the same
   type annotation or the function is unclean. *)
let intern fm_regs next_uid next_int next_flt (r : Ir.Instr.reg) =
  match Hashtbl.find_opt fm_regs r.Ir.Instr.id with
  | Some ri ->
    if not (Ir.Types.equal ri.rty r.Ir.Instr.ty) then raise Unclean;
    ri
  | None ->
    let uid = !next_uid in
    incr next_uid;
    let bidx =
      match bank_of r.Ir.Instr.ty with
      | `Int ->
        let i = !next_int in
        incr next_int;
        i
      | `Float ->
        let i = !next_flt in
        incr next_flt;
        i
    in
    let ri = { uid; bidx; rty = r.Ir.Instr.ty } in
    Hashtbl.replace fm_regs r.Ir.Instr.id ri;
    ri

let operand_ty (o : Ir.Instr.operand) = Ir.Instr.operand_ty o

(* Check one function: intern every register, enforce full type/arity/
   label consistency. [fsigs] maps callee name to (param types, ret). *)
let check_func fsigs pm_globals (f : Ir.Func.t) : fmeta =
  if f.Ir.Func.blocks = [] then raise Unclean;
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.Block.t) ->
      if Hashtbl.mem labels b.Ir.Block.label then raise Unclean;
      Hashtbl.replace labels b.Ir.Block.label ())
    f.Ir.Func.blocks;
  let fm_regs = Hashtbl.create 32 in
  let next_uid = ref 0 and next_int = ref 0 and next_flt = ref 0 in
  let intern r = intern fm_regs next_uid next_int next_flt r in
  let seen_params = Hashtbl.create 8 in
  List.iter
    (fun (r : Ir.Instr.reg) ->
      if Hashtbl.mem seen_params r.Ir.Instr.id then raise Unclean;
      Hashtbl.replace seen_params r.Ir.Instr.id ();
      ignore (intern r : rinfo))
    f.Ir.Func.params;
  let check_operand (o : Ir.Instr.operand) (want : Ir.Types.t) =
    (match o with
     | Ir.Instr.Reg r -> ignore (intern r : rinfo)
     | Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ -> ());
    if not (Ir.Types.equal (operand_ty o) want) then raise Unclean
  in
  let check_mem (m : Ir.Instr.mem_ref) : Ir.Types.t =
    check_operand m.Ir.Instr.index Ir.Types.I32;
    match Hashtbl.find_opt pm_globals m.Ir.Instr.base with
    | Some ((Ir.Types.I32 | Ir.Types.F32) as elem, _) -> elem
    | Some (Ir.Types.Bool, _) | None -> raise Unclean
  in
  let check_instr (i : Ir.Instr.t) =
    match i with
    | Ir.Instr.Assign (r, o) ->
      let ri = intern r in
      check_operand o ri.rty
    | Ir.Instr.Unary (r, op, o) ->
      let ity, oty = Ir.Op.un_sig op in
      let ri = intern r in
      if not (Ir.Types.equal ri.rty oty) then raise Unclean;
      check_operand o ity
    | Ir.Instr.Binary (r, op, a, b) ->
      let ty = Ir.Op.bin_operand_ty op in
      let ri = intern r in
      if not (Ir.Types.equal ri.rty ty) then raise Unclean;
      check_operand a ty;
      check_operand b ty
    | Ir.Instr.Compare (r, op, a, b) ->
      let ty = Ir.Op.cmp_operand_ty op in
      let ri = intern r in
      if not (Ir.Types.equal ri.rty Ir.Types.Bool) then raise Unclean;
      check_operand a ty;
      check_operand b ty
    | Ir.Instr.Select (r, c, a, b) ->
      let ri = intern r in
      check_operand c Ir.Types.Bool;
      check_operand a ri.rty;
      check_operand b ri.rty
    | Ir.Instr.Load (r, m) ->
      let ri = intern r in
      let elem = check_mem m in
      if not (Ir.Types.equal ri.rty elem) then raise Unclean
    | Ir.Instr.Store (m, v) ->
      let elem = check_mem m in
      check_operand v elem
    | Ir.Instr.Call (dest, callee, args) ->
      let ptys, ret =
        match Hashtbl.find_opt fsigs callee with
        | Some s -> s
        | None -> raise Unclean
      in
      (try List.iter2 check_operand args ptys
       with Invalid_argument _ -> raise Unclean);
      (match dest with
       | None -> ()
       | Some r ->
         let ri = intern r in
         (match ret with
          | Some ty when Ir.Types.equal ri.rty ty -> ()
          | Some _ | None -> raise Unclean))
  in
  let check_term (t : Ir.Instr.term) =
    match t with
    | Ir.Instr.Jump l -> if not (Hashtbl.mem labels l) then raise Unclean
    | Ir.Instr.Branch (c, tl, fl) ->
      check_operand c Ir.Types.Bool;
      if not (Hashtbl.mem labels tl && Hashtbl.mem labels fl) then
        raise Unclean
    | Ir.Instr.Return o ->
      (match o, f.Ir.Func.ret with
       | None, None -> ()
       | Some o, Some ty -> check_operand o ty
       | Some _, None | None, Some _ -> raise Unclean)
  in
  List.iter
    (fun (b : Ir.Block.t) ->
      List.iter check_instr b.Ir.Block.instrs;
      check_term b.Ir.Block.term)
    f.Ir.Func.blocks;
  { fm_func = f;
    fm_regs;
    fm_nregs = !next_uid;
    fm_nints = !next_int;
    fm_nflts = !next_flt;
    fm_ret = ret_kind_of f.Ir.Func.ret }

(* [analyze p] is [Some meta] when [p] is statically clean (no dynamic
   type error is reachable), [None] when the staged engine must fall
   back to the reference engine. *)
let analyze (p : Ir.Program.t) : pmeta option =
  try
    let pm_globals = Hashtbl.create 16 in
    List.iter
      (fun (g : Ir.Program.global) ->
        let n = Ir.Program.global_size g in
        if n < 0 then raise Unclean;
        (* Last definition wins, matching Memory.create. *)
        Hashtbl.replace pm_globals g.Ir.Program.gname (g.Ir.Program.elem, n))
      p.Ir.Program.globals;
    let fsigs = Hashtbl.create 8 in
    List.iter
      (fun (f : Ir.Func.t) ->
        Hashtbl.replace fsigs f.Ir.Func.name
          ( List.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.ty)
              f.Ir.Func.params,
            f.Ir.Func.ret ))
      p.Ir.Program.funcs;
    let pm_funcs = Hashtbl.create 8 in
    List.iter
      (fun (f : Ir.Func.t) ->
        Hashtbl.replace pm_funcs f.Ir.Func.name
          (check_func fsigs pm_globals f))
      p.Ir.Program.funcs;
    let pm_main =
      match Hashtbl.find_opt pm_funcs p.Ir.Program.main with
      | Some fm -> fm
      | None -> raise Unclean
    in
    if pm_main.fm_func.Ir.Func.params <> [] then raise Unclean;
    Some { pm_funcs; pm_globals; pm_main }
  with Unclean -> None

(* ------------------------------------------------------------------ *)
(* Must-defined dataflow                                              *)
(* ------------------------------------------------------------------ *)

(* Forward intersection analysis over register uids: a register is
   must-defined at a block's entry when every CFG path from the function
   entry defines it first. Reads proven defined skip the def-byte check
   at run time; every write still sets its def byte unconditionally, so
   the two engines agree on [read] visibility at observer points. *)
let must_defined (fm : fmeta) : (string, bool array) Hashtbl.t =
  let blocks = Array.of_list fm.fm_func.Ir.Func.blocks in
  let nb = Array.length blocks in
  let index = Hashtbl.create nb in
  Array.iteri
    (fun i (b : Ir.Block.t) -> Hashtbl.replace index b.Ir.Block.label i)
    blocks;
  let uid_of (r : Ir.Instr.reg) =
    (Hashtbl.find fm.fm_regs r.Ir.Instr.id).uid
  in
  let defs =
    Array.map
      (fun (b : Ir.Block.t) ->
        let d = Array.make fm.fm_nregs false in
        List.iter
          (fun i ->
            match Ir.Instr.def i with
            | Some r -> d.(uid_of r) <- true
            | None -> ())
          b.Ir.Block.instrs;
        d)
      blocks
  in
  let preds = Array.make nb [] in
  Array.iteri
    (fun i (b : Ir.Block.t) ->
      List.iter
        (fun s ->
          let j = Hashtbl.find index s in
          preds.(j) <- i :: preds.(j))
        (Ir.Instr.term_succs b.Ir.Block.term))
    blocks;
  (* Entry starts from the parameters; everything else from top (all
     true) and is narrowed by intersection to a fixpoint. *)
  let inb =
    Array.init nb (fun i ->
        if i = 0 then (
          let a = Array.make fm.fm_nregs false in
          List.iter
            (fun r -> a.(uid_of r) <- true)
            fm.fm_func.Ir.Func.params;
          a)
        else Array.make fm.fm_nregs true)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to nb - 1 do
      match preds.(i) with
      | [] -> () (* unreachable: never executes, any answer is safe *)
      | ps ->
        for u = 0 to fm.fm_nregs - 1 do
          let v =
            List.for_all (fun pi -> inb.(pi).(u) || defs.(pi).(u)) ps
          in
          if inb.(i).(u) && not v then (
            inb.(i).(u) <- false;
            changed := true)
        done
    done
  done;
  let out = Hashtbl.create nb in
  Array.iteri
    (fun i (b : Ir.Block.t) ->
      Hashtbl.replace out b.Ir.Block.label inb.(i))
    blocks;
  out

(* ------------------------------------------------------------------ *)
(* Compiled representation                                            *)
(* ------------------------------------------------------------------ *)

type frame = {
  ints : int array; (* I32 and Bool (0/1) registers *)
  flts : float array; (* F32 registers *)
  def : Bytes.t; (* '\001' once the register has been written *)
  mutable reti : int; (* int/bool return slot *)
  mutable retf : float; (* float return slot *)
}

type sblock = {
  sb_func : string;
  sb_label : string;
  sb_cycles : int;
  sb_ninstrs : int;
  mutable sb_code : (frame -> unit) array;
  mutable sb_term : sterm;
  (* Profile counter, bound lazily on first execution so the profile
     hashtable sees exactly the reference engine's insertion sequence
     (byte-identical under Marshal). *)
  mutable sb_cnt : int ref option;
}

and sterm =
  | S_halt (* codegen placeholder, never executed *)
  | S_jump of sedge
  | S_branch of (frame -> int) * sedge * sedge
  | S_branch_reg of int * sedge * sedge (* proven-defined bool, bank index *)
  | S_ret_int of (frame -> int)
  | S_ret_bool of (frame -> int)
  | S_ret_float of (frame -> float)
  | S_ret_void

and sedge = {
  e_target : sblock;
  e_src : string;
  e_dst : string;
  mutable e_cnt : int ref option;
}

type sfunc = {
  sf_name : string;
  mutable sf_entry : sblock;
  sf_nints : int;
  sf_nflts : int;
  sf_nregs : int;
  sf_regs : (string, rinfo) Hashtbl.t;
  sf_ret : ret_kind;
  mutable sf_cnt : int ref option; (* lazy call-count slot *)
}

type ctx = {
  cx_profile : Profile.t;
  cx_fuel : int ref;
  cx_observer : observer option;
  cx_mem : Memory.t;
}

let new_frame (sf : sfunc) =
  { ints = Array.make sf.sf_nints 0;
    flts = Array.make sf.sf_nflts 0.0;
    def = Bytes.make sf.sf_nregs '\000';
    reti = 0;
    retf = 0.0 }

let frame_read (sf : sfunc) (fr : frame) (rid : string) : Value.t option =
  match Hashtbl.find_opt sf.sf_regs rid with
  | None -> None
  | Some ri ->
    if Bytes.get fr.def ri.uid = '\000' then None
    else
      Some
        (match ri.rty with
         | Ir.Types.I32 -> Value.Vint fr.ints.(ri.bidx)
         | Ir.Types.Bool -> Value.Vbool (fr.ints.(ri.bidx) <> 0)
         | Ir.Types.F32 -> Value.Vfloat fr.flts.(ri.bidx))

(* ------------------------------------------------------------------ *)
(* Specialised instruction closures                                   *)
(* ------------------------------------------------------------------ *)

(* An operand as codegen resolves it: a register the must-defined
   analysis proves written ([Reg] holds its bank index), an int/bool or
   float immediate, or a register that may still be unwritten and so
   goes through the checked reader. *)
type shape = Reg of int | Imm of int | Fimm of float | Checked

(* Bank accessors for the specialised closures. They are small enough
   for ocamlopt to inline without flambda, so a float stays unboxed from
   the bank read to the bank write. Every write sets the destination's
   def byte, as the generic writers do. *)
let[@inline] rdi fr x = Array.unsafe_get fr.ints x
let[@inline] rdf fr x = Array.unsafe_get fr.flts x

let[@inline] wri fr d u v =
  Array.unsafe_set fr.ints d v;
  Bytes.unsafe_set fr.def u '\001'

let[@inline] wrf fr d u v =
  Array.unsafe_set fr.flts d v;
  Bytes.unsafe_set fr.def u '\001'

let oob base n idx =
  Memory.Fault (Printf.sprintf "index %d out of bounds for %s[%d]" idx base n)

(* Bank register [x] as an index into [base], which has [n] cells. *)
let[@inline] bank_index fr x base n =
  let idx = rdi fr x in
  if idx < 0 || idx >= n then raise (oob base n idx);
  idx

(* One closure per (operator, shape) writing bank slot [d] (def byte
   [u]); [None] leaves the instruction to the generic closures. Each
   body is written out: passing the operator to a shared helper as a
   function boxes every float result, and matching on it inside one
   closure costs about twice as much per instruction. Commutative
   integer operators take imm/reg through the reg/imm closure; float
   operators keep the operand order, which decides the result when both
   operands are NaN. *)
let bin_code (op : Ir.Op.bin) d u a b : (frame -> unit) option =
  match op, a, b with
  | Ir.Op.Add, Reg x, Reg y -> Some (fun fr -> wri fr d u (rdi fr x + rdi fr y))
  | Ir.Op.Add, Reg x, Imm k | Ir.Op.Add, Imm k, Reg x ->
    Some (fun fr -> wri fr d u (rdi fr x + k))
  | Ir.Op.Sub, Reg x, Reg y -> Some (fun fr -> wri fr d u (rdi fr x - rdi fr y))
  | Ir.Op.Sub, Reg x, Imm k -> Some (fun fr -> wri fr d u (rdi fr x - k))
  | Ir.Op.Sub, Imm k, Reg y -> Some (fun fr -> wri fr d u (k - rdi fr y))
  | Ir.Op.Mul, Reg x, Reg y -> Some (fun fr -> wri fr d u (rdi fr x * rdi fr y))
  | Ir.Op.Mul, Reg x, Imm k | Ir.Op.Mul, Imm k, Reg x ->
    Some (fun fr -> wri fr d u (rdi fr x * k))
  | Ir.Op.Div, Reg x, Reg y ->
    Some
      (fun fr ->
        let n = rdi fr y in
        if n = 0 then raise (Runtime_error "integer division by zero");
        wri fr d u (rdi fr x / n))
  | Ir.Op.Div, Reg x, Imm k when k <> 0 ->
    Some (fun fr -> wri fr d u (rdi fr x / k))
  | Ir.Op.Div, Imm k, Reg y ->
    Some
      (fun fr ->
        let n = rdi fr y in
        if n = 0 then raise (Runtime_error "integer division by zero");
        wri fr d u (k / n))
  | Ir.Op.Rem, Reg x, Reg y ->
    Some
      (fun fr ->
        let n = rdi fr y in
        if n = 0 then raise (Runtime_error "integer remainder by zero");
        wri fr d u (rdi fr x mod n))
  | Ir.Op.Rem, Reg x, Imm k when k <> 0 ->
    Some (fun fr -> wri fr d u (rdi fr x mod k))
  | Ir.Op.Rem, Imm k, Reg y ->
    Some
      (fun fr ->
        let n = rdi fr y in
        if n = 0 then raise (Runtime_error "integer remainder by zero");
        wri fr d u (k mod n))
  | Ir.Op.And, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (rdi fr x land rdi fr y))
  | Ir.Op.And, Reg x, Imm k | Ir.Op.And, Imm k, Reg x ->
    Some (fun fr -> wri fr d u (rdi fr x land k))
  | Ir.Op.Or, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (rdi fr x lor rdi fr y))
  | Ir.Op.Or, Reg x, Imm k | Ir.Op.Or, Imm k, Reg x ->
    Some (fun fr -> wri fr d u (rdi fr x lor k))
  | Ir.Op.Xor, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (rdi fr x lxor rdi fr y))
  | Ir.Op.Xor, Reg x, Imm k | Ir.Op.Xor, Imm k, Reg x ->
    Some (fun fr -> wri fr d u (rdi fr x lxor k))
  | Ir.Op.Shl, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (rdi fr x lsl rdi fr y))
  | Ir.Op.Shl, Reg x, Imm k -> Some (fun fr -> wri fr d u (rdi fr x lsl k))
  | Ir.Op.Shl, Imm k, Reg y -> Some (fun fr -> wri fr d u (k lsl rdi fr y))
  | Ir.Op.Shr, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (rdi fr x asr rdi fr y))
  | Ir.Op.Shr, Reg x, Imm k -> Some (fun fr -> wri fr d u (rdi fr x asr k))
  | Ir.Op.Shr, Imm k, Reg y -> Some (fun fr -> wri fr d u (k asr rdi fr y))
  | Ir.Op.Fadd, Reg x, Reg y ->
    Some (fun fr -> wrf fr d u (rdf fr x +. rdf fr y))
  | Ir.Op.Fadd, Reg x, Fimm k -> Some (fun fr -> wrf fr d u (rdf fr x +. k))
  | Ir.Op.Fadd, Fimm k, Reg y -> Some (fun fr -> wrf fr d u (k +. rdf fr y))
  | Ir.Op.Fsub, Reg x, Reg y ->
    Some (fun fr -> wrf fr d u (rdf fr x -. rdf fr y))
  | Ir.Op.Fsub, Reg x, Fimm k -> Some (fun fr -> wrf fr d u (rdf fr x -. k))
  | Ir.Op.Fsub, Fimm k, Reg y -> Some (fun fr -> wrf fr d u (k -. rdf fr y))
  | Ir.Op.Fmul, Reg x, Reg y ->
    Some (fun fr -> wrf fr d u (rdf fr x *. rdf fr y))
  | Ir.Op.Fmul, Reg x, Fimm k -> Some (fun fr -> wrf fr d u (rdf fr x *. k))
  | Ir.Op.Fmul, Fimm k, Reg y -> Some (fun fr -> wrf fr d u (k *. rdf fr y))
  | Ir.Op.Fdiv, Reg x, Reg y ->
    Some (fun fr -> wrf fr d u (rdf fr x /. rdf fr y))
  | Ir.Op.Fdiv, Reg x, Fimm k -> Some (fun fr -> wrf fr d u (rdf fr x /. k))
  | Ir.Op.Fdiv, Fimm k, Reg y -> Some (fun fr -> wrf fr d u (k /. rdf fr y))
  | _ -> None

(* [k op y] is [y (mirror op) k], NaN included, so imm/reg compares
   reuse the reg/imm closures. *)
let mirror (op : Ir.Op.cmp) : Ir.Op.cmp =
  match op with
  | Ir.Op.Lt -> Ir.Op.Gt
  | Ir.Op.Gt -> Ir.Op.Lt
  | Ir.Op.Le -> Ir.Op.Ge
  | Ir.Op.Ge -> Ir.Op.Le
  | Ir.Op.Flt -> Ir.Op.Fgt
  | Ir.Op.Fgt -> Ir.Op.Flt
  | Ir.Op.Fle -> Ir.Op.Fge
  | Ir.Op.Fge -> Ir.Op.Fle
  | (Ir.Op.Eq | Ir.Op.Ne | Ir.Op.Feq | Ir.Op.Fne) as op -> op

let rec cmp_code (op : Ir.Op.cmp) d u a b : (frame -> unit) option =
  match op, a, b with
  | _, (Imm _ | Fimm _), Reg _ -> cmp_code (mirror op) d u b a
  | Ir.Op.Eq, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdi fr x = rdi fr y then 1 else 0))
  | Ir.Op.Eq, Reg x, Imm k ->
    Some (fun fr -> wri fr d u (if rdi fr x = k then 1 else 0))
  | Ir.Op.Ne, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdi fr x <> rdi fr y then 1 else 0))
  | Ir.Op.Ne, Reg x, Imm k ->
    Some (fun fr -> wri fr d u (if rdi fr x <> k then 1 else 0))
  | Ir.Op.Lt, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdi fr x < rdi fr y then 1 else 0))
  | Ir.Op.Lt, Reg x, Imm k ->
    Some (fun fr -> wri fr d u (if rdi fr x < k then 1 else 0))
  | Ir.Op.Le, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdi fr x <= rdi fr y then 1 else 0))
  | Ir.Op.Le, Reg x, Imm k ->
    Some (fun fr -> wri fr d u (if rdi fr x <= k then 1 else 0))
  | Ir.Op.Gt, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdi fr x > rdi fr y then 1 else 0))
  | Ir.Op.Gt, Reg x, Imm k ->
    Some (fun fr -> wri fr d u (if rdi fr x > k then 1 else 0))
  | Ir.Op.Ge, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdi fr x >= rdi fr y then 1 else 0))
  | Ir.Op.Ge, Reg x, Imm k ->
    Some (fun fr -> wri fr d u (if rdi fr x >= k then 1 else 0))
  | Ir.Op.Feq, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdf fr x = rdf fr y then 1 else 0))
  | Ir.Op.Feq, Reg x, Fimm k ->
    Some (fun fr -> wri fr d u (if rdf fr x = k then 1 else 0))
  | Ir.Op.Fne, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdf fr x <> rdf fr y then 1 else 0))
  | Ir.Op.Fne, Reg x, Fimm k ->
    Some (fun fr -> wri fr d u (if rdf fr x <> k then 1 else 0))
  | Ir.Op.Flt, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdf fr x < rdf fr y then 1 else 0))
  | Ir.Op.Flt, Reg x, Fimm k ->
    Some (fun fr -> wri fr d u (if rdf fr x < k then 1 else 0))
  | Ir.Op.Fle, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdf fr x <= rdf fr y then 1 else 0))
  | Ir.Op.Fle, Reg x, Fimm k ->
    Some (fun fr -> wri fr d u (if rdf fr x <= k then 1 else 0))
  | Ir.Op.Fgt, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdf fr x > rdf fr y then 1 else 0))
  | Ir.Op.Fgt, Reg x, Fimm k ->
    Some (fun fr -> wri fr d u (if rdf fr x > k then 1 else 0))
  | Ir.Op.Fge, Reg x, Reg y ->
    Some (fun fr -> wri fr d u (if rdf fr x >= rdf fr y then 1 else 0))
  | Ir.Op.Fge, Reg x, Fimm k ->
    Some (fun fr -> wri fr d u (if rdf fr x >= k then 1 else 0))
  | _ -> None

(* Bump a lazily-bound profile counter. The slot is created on first
   execution (not at compile time), so the profile hashtables see
   exactly the reference engine's insertion sequence and stay
   byte-identical under Marshal. After the first bump the counter is a
   cached [int ref]: no hashing, no allocation. *)
let[@inline] bump_edge (cx : ctx) (b : sblock) (e : sedge) =
  match e.e_cnt with
  | Some r -> incr r
  | None ->
    let r =
      Profile.edge_slot cx.cx_profile ~func:b.sb_func ~src:e.e_src
        ~dst:e.e_dst
    in
    incr r;
    e.e_cnt <- Some r

(* The block-execution loop: per-block bookkeeping mirrors the reference
   engine exactly (profile, observer, cycles, instrs, fuel — in that
   order), then the instruction closures run back to back. *)
let exec_sfunc (cx : ctx) (sf : sfunc) (fr : frame) : unit =
  (match sf.sf_cnt with
   | Some r -> incr r
   | None ->
     let r = Profile.call_slot cx.cx_profile sf.sf_name in
     incr r;
     sf.sf_cnt <- Some r);
  let read =
    match cx.cx_observer with
    | Some _ -> Some (frame_read sf fr)
    | None -> None
  in
  let cur = ref sf.sf_entry in
  let running = ref true in
  while !running do
    let b = !cur in
    (match b.sb_cnt with
     | Some r -> incr r
     | None ->
       let r =
         Profile.block_slot cx.cx_profile ~func:b.sb_func ~label:b.sb_label
       in
       incr r;
       b.sb_cnt <- Some r);
    (match cx.cx_observer with
     | Some o ->
       o.obs_block ~func:sf.sf_name ~label:b.sb_label
         ~read:(Option.get read) ~mem:cx.cx_mem
     | None -> ());
    Profile.add_cycles cx.cx_profile b.sb_cycles;
    Profile.add_instrs cx.cx_profile b.sb_ninstrs;
    cx.cx_fuel := !(cx.cx_fuel) - b.sb_ninstrs - 1;
    if !(cx.cx_fuel) < 0 then raise Out_of_fuel;
    let code = b.sb_code in
    for i = 0 to Array.length code - 1 do
      (Array.unsafe_get code i) fr
    done;
    match b.sb_term with
    | S_jump e ->
      bump_edge cx b e;
      cur := e.e_target
    | S_branch (c, te, fe) ->
      let e = if c fr <> 0 then te else fe in
      bump_edge cx b e;
      cur := e.e_target
    | S_branch_reg (x, te, fe) ->
      let e = if Array.unsafe_get fr.ints x <> 0 then te else fe in
      bump_edge cx b e;
      cur := e.e_target
    | S_ret_int f ->
      fr.reti <- f fr;
      (match cx.cx_observer with
       | Some o ->
         o.obs_return ~func:sf.sf_name ~read:(Option.get read)
           ~value:(Some (Value.Vint fr.reti)) ~mem:cx.cx_mem
       | None -> ());
      running := false
    | S_ret_bool f ->
      fr.reti <- f fr;
      (match cx.cx_observer with
       | Some o ->
         o.obs_return ~func:sf.sf_name ~read:(Option.get read)
           ~value:(Some (Value.Vbool (fr.reti <> 0))) ~mem:cx.cx_mem
       | None -> ());
      running := false
    | S_ret_float f ->
      fr.retf <- f fr;
      (match cx.cx_observer with
       | Some o ->
         o.obs_return ~func:sf.sf_name ~read:(Option.get read)
           ~value:(Some (Value.Vfloat fr.retf)) ~mem:cx.cx_mem
       | None -> ());
      running := false
    | S_ret_void ->
      (match cx.cx_observer with
       | Some o ->
         o.obs_return ~func:sf.sf_name ~read:(Option.get read) ~value:None
           ~mem:cx.cx_mem
       | None -> ());
      running := false
    | S_halt -> assert false
  done

(* ------------------------------------------------------------------ *)
(* Code generation                                                    *)
(* ------------------------------------------------------------------ *)

(* Compile every function of a clean program against one run's memory,
   cache and context. Closures capture resolved arrays and counters
   directly, so the hot path performs no name lookups. *)
let codegen (pm : pmeta) (cx : ctx) (cache : Cache.t option) :
    (string, sfunc) Hashtbl.t =
  let sfuncs : (string, sfunc) Hashtbl.t = Hashtbl.create 8 in
  (* Pass 1: shells, so call sites and mutual recursion resolve. *)
  Hashtbl.iter
    (fun name (fm : fmeta) ->
      let dummy =
        { sb_func = name;
          sb_label = "";
          sb_cycles = 0;
          sb_ninstrs = 0;
          sb_code = [||];
          sb_term = S_halt;
          sb_cnt = None }
      in
      Hashtbl.replace sfuncs name
        { sf_name = name;
          sf_entry = dummy;
          sf_nints = fm.fm_nints;
          sf_nflts = fm.fm_nflts;
          sf_nregs = fm.fm_nregs;
          sf_regs = fm.fm_regs;
          sf_ret = fm.fm_ret;
          sf_cnt = None })
    pm.pm_funcs;
  (* Pass 2: code. *)
  Hashtbl.iter
    (fun name (fm : fmeta) ->
      let sf = Hashtbl.find sfuncs name in
      let f = fm.fm_func in
      let fname = f.Ir.Func.name in
      let entry_in = must_defined fm in
      let blocks = Hashtbl.create 16 in
      List.iter
        (fun (b : Ir.Block.t) ->
          Hashtbl.replace blocks b.Ir.Block.label
            { sb_func = fname;
              sb_label = b.Ir.Block.label;
              sb_cycles = Cpu_model.block_cycles b;
              sb_ninstrs = List.length b.Ir.Block.instrs;
              sb_code = [||];
              sb_term = S_halt;
              sb_cnt = None })
        f.Ir.Func.blocks;
      List.iter
        (fun (b : Ir.Block.t) ->
          let sb = Hashtbl.find blocks b.Ir.Block.label in
          (* Per-position defined set: the block-entry facts, advanced
             past each instruction's destination as we compile. *)
          let defined = Array.copy (Hashtbl.find entry_in b.Ir.Block.label) in
          let ri_of (r : Ir.Instr.reg) = Hashtbl.find fm.fm_regs r.Ir.Instr.id in
          (* Typed operand readers. Reads proven must-defined skip the
             def-byte check; others keep it, raising the reference
             engine's exact message. *)
          let ci (o : Ir.Instr.operand) : frame -> int =
            match o with
            | Ir.Instr.Imm_int n -> fun _ -> n
            | Ir.Instr.Imm_bool bv ->
              let n = if bv then 1 else 0 in
              fun _ -> n
            | Ir.Instr.Imm_float _ -> assert false
            | Ir.Instr.Reg r ->
              let ri = ri_of r in
              let bidx = ri.bidx in
              if defined.(ri.uid) then
                fun fr -> Array.unsafe_get fr.ints bidx
              else
                let uid = ri.uid in
                let msg =
                  Printf.sprintf "uninitialized register %%%s in %s"
                    r.Ir.Instr.id fname
                in
                fun fr ->
                  if Bytes.unsafe_get fr.def uid = '\000' then
                    raise (Runtime_error msg);
                  Array.unsafe_get fr.ints bidx
          in
          let cf (o : Ir.Instr.operand) : frame -> float =
            match o with
            | Ir.Instr.Imm_float x -> fun _ -> x
            | Ir.Instr.Imm_int _ | Ir.Instr.Imm_bool _ -> assert false
            | Ir.Instr.Reg r ->
              let ri = ri_of r in
              let bidx = ri.bidx in
              if defined.(ri.uid) then
                fun fr -> Array.unsafe_get fr.flts bidx
              else
                let uid = ri.uid in
                let msg =
                  Printf.sprintf "uninitialized register %%%s in %s"
                    r.Ir.Instr.id fname
                in
                fun fr ->
                  if Bytes.unsafe_get fr.def uid = '\000' then
                    raise (Runtime_error msg);
                  Array.unsafe_get fr.flts bidx
          in
          (* Typed destination writers: always set the def byte so
             observer [read] visibility matches the reference engine. *)
          let seti (r : Ir.Instr.reg) : frame -> int -> unit =
            let ri = ri_of r in
            let bidx = ri.bidx and uid = ri.uid in
            fun fr v ->
              Array.unsafe_set fr.ints bidx v;
              Bytes.unsafe_set fr.def uid '\001'
          in
          let setf (r : Ir.Instr.reg) : frame -> float -> unit =
            let ri = ri_of r in
            let bidx = ri.bidx and uid = ri.uid in
            fun fr v ->
              Array.unsafe_set fr.flts bidx v;
              Bytes.unsafe_set fr.def uid '\001'
          in
          let touch base : int -> unit =
            match cache with
            | Some c -> fun index -> ignore (Cache.access c ~base ~index : bool)
            | None -> fun _ -> ()
          in
          let is_float_op (ty : Ir.Types.t) =
            match ty with
            | Ir.Types.F32 -> true
            | Ir.Types.I32 | Ir.Types.Bool -> false
          in
          let compile_instr (i : Ir.Instr.t) : frame -> unit =
            match i with
            | Ir.Instr.Assign (r, o) ->
              if is_float_op (ri_of r).rty then
                let a = cf o and set = setf r in
                fun fr -> set fr (a fr)
              else
                let a = ci o and set = seti r in
                fun fr -> set fr (a fr)
            | Ir.Instr.Unary (r, op, o) ->
              (match op with
               | Ir.Op.Neg ->
                 let a = ci o and set = seti r in
                 fun fr -> set fr (- a fr)
               | Ir.Op.Not ->
                 let a = ci o and set = seti r in
                 fun fr -> set fr (a fr lxor 1)
               | Ir.Op.Fneg ->
                 let a = cf o and set = setf r in
                 fun fr -> set fr (-. (a fr))
               | Ir.Op.Int_of_float ->
                 let a = cf o and set = seti r in
                 fun fr -> set fr (int_of_float (a fr))
               | Ir.Op.Float_of_int ->
                 let a = ci o and set = setf r in
                 fun fr -> set fr (float_of_int (a fr)))
            | Ir.Instr.Binary (r, op, a, b) ->
              (* The reference engine evaluates operand [b] before [a]
                 (OCaml right-to-left application), so uninitialized-
                 register errors must surface in that order here too. *)
              (match op with
               | Ir.Op.Add ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av + bv)
               | Ir.Op.Sub ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av - bv)
               | Ir.Op.Mul ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av * bv)
               | Ir.Op.Div ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   if bv = 0 then
                     raise (Runtime_error "integer division by zero");
                   set fr (av / bv)
               | Ir.Op.Rem ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   if bv = 0 then
                     raise (Runtime_error "integer remainder by zero");
                   set fr (av mod bv)
               | Ir.Op.And ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av land bv)
               | Ir.Op.Or ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av lor bv)
               | Ir.Op.Xor ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av lxor bv)
               | Ir.Op.Shl ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av lsl bv)
               | Ir.Op.Shr ->
                 let fa = ci a and fb = ci b and set = seti r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av asr bv)
               | Ir.Op.Fadd ->
                 let fa = cf a and fb = cf b and set = setf r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av +. bv)
               | Ir.Op.Fsub ->
                 let fa = cf a and fb = cf b and set = setf r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av -. bv)
               | Ir.Op.Fmul ->
                 let fa = cf a and fb = cf b and set = setf r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av *. bv)
               | Ir.Op.Fdiv ->
                 let fa = cf a and fb = cf b and set = setf r in
                 fun fr ->
                   let bv = fb fr in
                   let av = fa fr in
                   set fr (av /. bv))
            | Ir.Instr.Compare (r, op, a, b) ->
              let set = seti r in
              if Ir.Op.cmp_is_float op then
                let fa = cf a and fb = cf b in
                let cmp : float -> float -> bool =
                  match op with
                  | Ir.Op.Feq -> fun x y -> x = y
                  | Ir.Op.Fne -> fun x y -> x <> y
                  | Ir.Op.Flt -> fun x y -> x < y
                  | Ir.Op.Fle -> fun x y -> x <= y
                  | Ir.Op.Fgt -> fun x y -> x > y
                  | Ir.Op.Fge -> fun x y -> x >= y
                  | Ir.Op.Eq | Ir.Op.Ne | Ir.Op.Lt | Ir.Op.Le | Ir.Op.Gt
                  | Ir.Op.Ge ->
                    assert false
                in
                fun fr ->
                  let bv = fb fr in
                  let av = fa fr in
                  set fr (if cmp av bv then 1 else 0)
              else
                let fa = ci a and fb = ci b in
                let cmp : int -> int -> bool =
                  match op with
                  | Ir.Op.Eq -> fun x y -> x = y
                  | Ir.Op.Ne -> fun x y -> x <> y
                  | Ir.Op.Lt -> fun x y -> x < y
                  | Ir.Op.Le -> fun x y -> x <= y
                  | Ir.Op.Gt -> fun x y -> x > y
                  | Ir.Op.Ge -> fun x y -> x >= y
                  | Ir.Op.Feq | Ir.Op.Fne | Ir.Op.Flt | Ir.Op.Fle
                  | Ir.Op.Fgt | Ir.Op.Fge ->
                    assert false
                in
                fun fr ->
                  let bv = fb fr in
                  let av = fa fr in
                  set fr (if cmp av bv then 1 else 0)
            | Ir.Instr.Select (r, c, a, b) ->
              let fc = ci c in
              if is_float_op (ri_of r).rty then
                let fa = cf a and fb = cf b and set = setf r in
                fun fr -> set fr (if fc fr <> 0 then fa fr else fb fr)
              else
                let fa = ci a and fb = ci b and set = seti r in
                fun fr -> set fr (if fc fr <> 0 then fa fr else fb fr)
            | Ir.Instr.Load (r, m) ->
              let base = m.Ir.Instr.base in
              let fi = ci m.Ir.Instr.index in
              let tch = touch base in
              (match Memory.int_cells cx.cx_mem base with
               | Some arr ->
                 let n = Array.length arr in
                 let set = seti r in
                 (match m.Ir.Instr.index with
                  | Ir.Instr.Imm_int k when k >= 0 && k < n ->
                    (* Bounds discharged at compile time. *)
                    fun fr ->
                      tch k;
                      set fr (Array.unsafe_get arr k)
                  | _ ->
                    fun fr ->
                      let idx = fi fr in
                      tch idx;
                      if idx < 0 || idx >= n then raise (oob base n idx);
                      set fr (Array.unsafe_get arr idx))
               | None ->
                 let arr = Option.get (Memory.float_cells cx.cx_mem base) in
                 let n = Array.length arr in
                 let set = setf r in
                 (match m.Ir.Instr.index with
                  | Ir.Instr.Imm_int k when k >= 0 && k < n ->
                    fun fr ->
                      tch k;
                      set fr (Array.unsafe_get arr k)
                  | _ ->
                    fun fr ->
                      let idx = fi fr in
                      tch idx;
                      if idx < 0 || idx >= n then raise (oob base n idx);
                      set fr (Array.unsafe_get arr idx)))
            | Ir.Instr.Store (m, v) ->
              let base = m.Ir.Instr.base in
              let fi = ci m.Ir.Instr.index in
              let tch = touch base in
              (match Memory.int_cells cx.cx_mem base with
               | Some arr ->
                 let n = Array.length arr in
                 let fv = ci v in
                 (match m.Ir.Instr.index with
                  | Ir.Instr.Imm_int k when k >= 0 && k < n ->
                    fun fr ->
                      tch k;
                      Array.unsafe_set arr k (fv fr)
                  | _ ->
                    fun fr ->
                      let idx = fi fr in
                      tch idx;
                      (* The reference engine evaluates the stored value
                         before Memory.store bounds-checks the index. *)
                      let x = fv fr in
                      if idx < 0 || idx >= n then raise (oob base n idx);
                      Array.unsafe_set arr idx x)
               | None ->
                 let arr = Option.get (Memory.float_cells cx.cx_mem base) in
                 let n = Array.length arr in
                 let fv = cf v in
                 (match m.Ir.Instr.index with
                  | Ir.Instr.Imm_int k when k >= 0 && k < n ->
                    fun fr ->
                      tch k;
                      Array.unsafe_set arr k (fv fr)
                  | _ ->
                    fun fr ->
                      let idx = fi fr in
                      tch idx;
                      let x = fv fr in
                      if idx < 0 || idx >= n then raise (oob base n idx);
                      Array.unsafe_set arr idx x))
            | Ir.Instr.Call (dest, callee, args) ->
              let csf = Hashtbl.find sfuncs callee in
              let cfm = Hashtbl.find pm.pm_funcs callee in
              (* One transfer closure per argument, applied caller-frame
                 to callee-frame in argument order (the reference
                 engine's List.map evaluates left to right). *)
              let trans =
                Array.of_list
                  (List.map2
                     (fun (p : Ir.Instr.reg) (a : Ir.Instr.operand) ->
                       let pri = Hashtbl.find cfm.fm_regs p.Ir.Instr.id in
                       let pb = pri.bidx and pu = pri.uid in
                       if is_float_op pri.rty then
                         let fa = cf a in
                         fun caller callee_fr ->
                           Array.unsafe_set callee_fr.flts pb (fa caller);
                           Bytes.unsafe_set callee_fr.def pu '\001'
                       else
                         let fa = ci a in
                         fun caller callee_fr ->
                           Array.unsafe_set callee_fr.ints pb (fa caller);
                           Bytes.unsafe_set callee_fr.def pu '\001')
                     cfm.fm_func.Ir.Func.params args)
              in
              let nargs = Array.length trans in
              let call fr =
                let cfr = new_frame csf in
                for i = 0 to nargs - 1 do
                  (Array.unsafe_get trans i) fr cfr
                done;
                exec_sfunc cx csf cfr;
                cfr
              in
              (match dest with
               | None -> fun fr -> ignore (call fr : frame)
               | Some r ->
                 (match csf.sf_ret with
                  | R_float ->
                    let set = setf r in
                    fun fr -> set fr (call fr).retf
                  | R_int | R_bool ->
                    let set = seti r in
                    fun fr -> set fr (call fr).reti
                  | R_void -> assert false (* ruled out by analysis *)))
          in
          let shape (o : Ir.Instr.operand) =
            match o with
            | Ir.Instr.Reg r ->
              let ri = ri_of r in
              if defined.(ri.uid) then Reg ri.bidx else Checked
            | Ir.Instr.Imm_int n -> Imm n
            | Ir.Instr.Imm_bool bv -> Imm (if bv then 1 else 0)
            | Ir.Instr.Imm_float x -> Fimm x
          in
          let int_cells base = Memory.int_cells cx.cx_mem base in
          let float_cells base =
            Option.get (Memory.float_cells cx.cx_mem base)
          in
          (* The one-closure form of [i], when its operands allow one. A
             cache-simulation run keeps the generic loads and stores,
             which report every access to the cache. *)
          let specialised (i : Ir.Instr.t) : (frame -> unit) option =
            match i with
            | Ir.Instr.Binary (r, op, a, b) ->
              let ri = ri_of r in
              bin_code op ri.bidx ri.uid (shape a) (shape b)
            | Ir.Instr.Compare (r, op, a, b) ->
              let ri = ri_of r in
              cmp_code op ri.bidx ri.uid (shape a) (shape b)
            | Ir.Instr.Unary (r, op, o) ->
              let { bidx = d; uid = u; _ } = ri_of r in
              (match op, shape o with
               | Ir.Op.Neg, Reg x -> Some (fun fr -> wri fr d u (-rdi fr x))
               | Ir.Op.Not, Reg x ->
                 Some (fun fr -> wri fr d u (rdi fr x lxor 1))
               | Ir.Op.Fneg, Reg x -> Some (fun fr -> wrf fr d u (-.rdf fr x))
               | Ir.Op.Int_of_float, Reg x ->
                 Some (fun fr -> wri fr d u (int_of_float (rdf fr x)))
               | Ir.Op.Float_of_int, Reg x ->
                 Some (fun fr -> wrf fr d u (float_of_int (rdi fr x)))
               | _ -> None)
            | Ir.Instr.Assign (r, o) ->
              let { bidx = d; uid = u; rty } = ri_of r in
              (match shape o with
               | Reg x when is_float_op rty ->
                 Some (fun fr -> wrf fr d u (rdf fr x))
               | Reg x -> Some (fun fr -> wri fr d u (rdi fr x))
               | Imm k -> Some (fun fr -> wri fr d u k)
               | Fimm k -> Some (fun fr -> wrf fr d u k)
               | Checked -> None)
            | Ir.Instr.Select (r, c, a, b) ->
              let { bidx = d; uid = u; rty } = ri_of r in
              (match shape c, shape a, shape b with
               | Reg p, Reg x, Reg y when is_float_op rty ->
                 Some
                   (fun fr ->
                     wrf fr d u (if rdi fr p <> 0 then rdf fr x else rdf fr y))
               | Reg p, Reg x, Reg y ->
                 Some
                   (fun fr ->
                     wri fr d u (if rdi fr p <> 0 then rdi fr x else rdi fr y))
               | Reg p, Reg x, Imm k ->
                 Some
                   (fun fr ->
                     wri fr d u (if rdi fr p <> 0 then rdi fr x else k))
               | _ -> None)
            | Ir.Instr.Load (r, { Ir.Instr.base; index })
              when Option.is_none cache ->
              let { bidx = d; uid = u; _ } = ri_of r in
              (match shape index, int_cells base with
               | Reg x, Some arr ->
                 let n = Array.length arr in
                 Some
                   (fun fr ->
                     wri fr d u (Array.unsafe_get arr (bank_index fr x base n)))
               | Reg x, None ->
                 let arr = float_cells base in
                 let n = Array.length arr in
                 Some
                   (fun fr ->
                     wrf fr d u (Array.unsafe_get arr (bank_index fr x base n)))
               | _ -> None)
            | Ir.Instr.Store ({ Ir.Instr.base; index }, v)
              when Option.is_none cache ->
              (match shape index, shape v, int_cells base with
               | Reg x, Reg y, Some arr ->
                 let n = Array.length arr in
                 Some
                   (fun fr ->
                     Array.unsafe_set arr (bank_index fr x base n) (rdi fr y))
               | Reg x, Imm k, Some arr ->
                 let n = Array.length arr in
                 Some
                   (fun fr -> Array.unsafe_set arr (bank_index fr x base n) k)
               | Reg x, Reg y, None ->
                 let arr = float_cells base in
                 let n = Array.length arr in
                 Some
                   (fun fr ->
                     Array.unsafe_set arr (bank_index fr x base n) (rdf fr y))
               | Reg x, Fimm k, None ->
                 let arr = float_cells base in
                 let n = Array.length arr in
                 Some
                   (fun fr -> Array.unsafe_set arr (bank_index fr x base n) k)
               | _ -> None)
            | Ir.Instr.Load _ | Ir.Instr.Store _ | Ir.Instr.Call _ -> None
          in
          let code =
            List.map
              (fun i ->
                let c =
                  match specialised i with
                  | Some c -> c
                  | None -> compile_instr i
                in
                (* Advance the defined set past this instruction for the
                   operands compiled after it. *)
                (match Ir.Instr.def i with
                 | Some r -> defined.((ri_of r).uid) <- true
                 | None -> ());
                c)
              b.Ir.Block.instrs
          in
          sb.sb_code <- Array.of_list code;
          let edge dst =
            { e_target = Hashtbl.find blocks dst;
              e_src = b.Ir.Block.label;
              e_dst = dst;
              e_cnt = None }
          in
          sb.sb_term <-
            (match b.Ir.Block.term with
             | Ir.Instr.Jump l -> S_jump (edge l)
             | Ir.Instr.Branch (c, t, fl) ->
               (match shape c with
                | Reg x -> S_branch_reg (x, edge t, edge fl)
                | Imm _ | Fimm _ | Checked -> S_branch (ci c, edge t, edge fl))
             | Ir.Instr.Return None -> S_ret_void
             | Ir.Instr.Return (Some o) ->
               (match fm.fm_ret with
                | R_float -> S_ret_float (cf o)
                | R_int -> S_ret_int (ci o)
                | R_bool -> S_ret_bool (ci o)
                | R_void -> assert false)))
        f.Ir.Func.blocks;
      sf.sf_entry <-
        Hashtbl.find blocks (Ir.Func.entry f).Ir.Block.label)
    pm.pm_funcs;
  sfuncs

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let run ?(fuel = default_fuel) ?cache_config ?observer (p : Ir.Program.t) =
  match analyze p with
  | None ->
    (* Unclean program: execute on the reference engine so every
       dynamic error (type errors, unknown labels, arity mismatches,
       missing main, ...) surfaces exactly as it always has. *)
    Interp_reference.run ~fuel ?cache_config ?observer p
  | Some pm ->
    let memory = Memory.create p in
    let profile = Profile.create () in
    let cache =
      Option.map (fun config -> Cache.create ~config p) cache_config
    in
    let cx =
      { cx_profile = profile;
        cx_fuel = ref fuel;
        cx_observer = observer;
        cx_mem = memory }
    in
    let sfuncs = codegen pm cx cache in
    let main = Hashtbl.find sfuncs p.Ir.Program.main in
    let return_value =
      Obs.Trace.span ~cat:"sim" "sim.interp" (fun () ->
          try
            let fr = new_frame main in
            exec_sfunc cx main fr;
            match main.sf_ret with
            | R_void -> None
            | R_int -> Some (Value.Vint fr.reti)
            | R_bool -> Some (Value.Vbool (fr.reti <> 0))
            | R_float -> Some (Value.Vfloat fr.retf)
          with
          | Value.Type_error m -> raise (Runtime_error ("type error: " ^ m))
          | Memory.Fault m -> raise (Runtime_error ("memory fault: " ^ m)))
    in
    Profile.publish_metrics profile;
    { return_value; memory; profile;
      cache_stats = Option.map Cache.stats cache }
