(* Differential harness for the two interpreter engines: every program —
   random CFGs from the test_memo generator, a richer typed generator
   exercising the staged fast path (int/float/bool banks, div/rem by
   zero, calls, select, uninitialized reads, out-of-bounds accesses),
   and all 28 Table II benchmarks — must behave byte-identically under
   Interp.Reference and Interp.Staged: return values, memories,
   profiles (Marshal bytes), observer event streams, cache stats, and
   exceptions, including the exact Out_of_fuel boundary. *)

module Ir = Cayman_ir
module Sim = Cayman_sim

(* ------------------------------------------------------------------ *)
(* Running one program under one engine                                *)
(* ------------------------------------------------------------------ *)

(* Observer events, recorded with the values of every register name the
   generators use so the staged engine's typed banks are compared
   against the reference engine's dynamic environment at every block
   boundary. *)
type event =
  | E_block of string * string * (string * Sim.Value.t option) list
  | E_return of string * Sim.Value.t option * (string * Sim.Value.t option) list

let watched_regs =
  [ "t0"; "t1"; "t2"; "t3"; "i"; "c"; (* test_memo generator *)
    "f0"; "f1"; "f2"; "f3"; "n0"; "n1"; "n2"; "n3"; "c0"; "c1"; "k"; "u";
    "s"; "x"; "y"; "a"; "w" (* typed generator + helpers *) ]

let snap read = List.map (fun r -> r, read r) watched_regs

type outcome = {
  o_ret : Sim.Value.t option option; (* None when the run raised *)
  o_err : string option;
  o_mem : Sim.Memory.t option;
  o_profile_digest : string;
  o_cycles : int;
  o_instrs : int;
  o_cache : Sim.Cache.stats option;
  o_events : event list;
}

let run_one ?(observe = false) ?cache_config ?fuel engine p : outcome =
  let events = ref [] in
  let observer =
    if not observe then None
    else
      Some
        { Sim.Interp.obs_block =
            (fun ~func ~label ~read ~mem:_ ->
              events := E_block (func, label, snap read) :: !events);
          obs_return =
            (fun ~func ~read ~value ~mem:_ ->
              events := E_return (func, value, snap read) :: !events) }
  in
  match Sim.Interp.run ~engine ?fuel ?cache_config ?observer p with
  | res ->
    { o_ret = Some res.Sim.Interp.return_value;
      o_err = None;
      o_mem = Some res.Sim.Interp.memory;
      o_profile_digest =
        Digest.string (Marshal.to_string res.Sim.Interp.profile []);
      o_cycles = Sim.Profile.total_cycles res.Sim.Interp.profile;
      o_instrs = Sim.Profile.total_instrs res.Sim.Interp.profile;
      o_cache = res.Sim.Interp.cache_stats;
      o_events = List.rev !events }
  | exception Sim.Interp.Out_of_fuel ->
    { o_ret = None;
      o_err = Some "out_of_fuel";
      o_mem = None;
      o_profile_digest = "";
      o_cycles = 0;
      o_instrs = 0;
      o_cache = None;
      o_events = List.rev !events }
  | exception Sim.Interp.Runtime_error m ->
    { o_ret = None;
      o_err = Some ("runtime_error: " ^ m);
      o_mem = None;
      o_profile_digest = "";
      o_cycles = 0;
      o_instrs = 0;
      o_cache = None;
      o_events = List.rev !events }

let value_opt_equal a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> Sim.Value.equal x y
  | None, Some _ | Some _, None -> false

let pp_value_opt = function
  | None -> "<none>"
  | Some v -> Format.asprintf "%a" Sim.Value.pp v

let reads_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (r1, v1) (r2, v2) -> String.equal r1 r2 && value_opt_equal v1 v2)
       a b

let event_equal a b =
  match a, b with
  | E_block (f1, l1, r1), E_block (f2, l2, r2) ->
    String.equal f1 f2 && String.equal l1 l2 && reads_equal r1 r2
  | E_return (f1, v1, r1), E_return (f2, v2, r2) ->
    String.equal f1 f2 && value_opt_equal v1 v2 && reads_equal r1 r2
  | (E_block _ | E_return _), _ -> false

let pp_event = function
  | E_block (f, l, _) -> Printf.sprintf "block %s/%s" f l
  | E_return (f, v, _) -> Printf.sprintf "return %s = %s" f (pp_value_opt v)

(* Compare a reference outcome against a staged outcome; [fail] reports
   with enough context to reproduce. *)
let check_outcomes fail (p : Ir.Program.t) (r : outcome) (s : outcome) =
  let ctx () = Ir.Program.to_string p in
  (match r.o_err, s.o_err with
   | None, None -> ()
   | Some a, Some b ->
     if not (String.equal a b) then
       fail
         (Printf.sprintf "error mismatch: reference=%s staged=%s\n%s" a b
            (ctx ()))
   | Some a, None ->
     fail
       (Printf.sprintf "reference raised %s, staged returned %s\n%s" a
          (pp_value_opt (Option.join s.o_ret))
          (ctx ()))
   | None, Some b ->
     fail
       (Printf.sprintf "staged raised %s, reference returned %s\n%s" b
          (pp_value_opt (Option.join r.o_ret))
          (ctx ())));
  (match r.o_ret, s.o_ret with
   | Some a, Some b when not (value_opt_equal a b) ->
     fail
       (Printf.sprintf "return mismatch: reference=%s staged=%s\n%s"
          (pp_value_opt a) (pp_value_opt b) (ctx ()))
   | _ -> ());
  (match r.o_mem, s.o_mem with
   | Some ma, Some mb ->
     (match Sim.Memory.diff ma mb with
      | [] -> ()
      | (base, detail) :: _ ->
        fail (Printf.sprintf "memory mismatch at %s: %s\n%s" base detail
                (ctx ())))
   | _ -> ());
  if r.o_err = None then begin
    if r.o_cycles <> s.o_cycles || r.o_instrs <> s.o_instrs then
      fail
        (Printf.sprintf
           "profile totals mismatch: reference=(%d cycles, %d instrs) \
            staged=(%d cycles, %d instrs)\n%s"
           r.o_cycles r.o_instrs s.o_cycles s.o_instrs (ctx ()));
    if not (String.equal r.o_profile_digest s.o_profile_digest) then
      fail
        (Printf.sprintf
           "profile Marshal bytes differ (totals agree: %d cycles, %d \
            instrs)\n%s"
           r.o_cycles r.o_instrs (ctx ()))
  end;
  (match r.o_cache, s.o_cache with
   | Some a, Some b when a <> b ->
     fail
       (Printf.sprintf
          "cache stats mismatch: reference=(%d/%d/%d) staged=(%d/%d/%d)\n%s"
          a.Sim.Cache.accesses a.Sim.Cache.hits a.Sim.Cache.misses
          b.Sim.Cache.accesses b.Sim.Cache.hits b.Sim.Cache.misses (ctx ()))
   | Some _, None | None, Some _ ->
     fail "cache stats presence mismatch"
   | _ -> ());
  let la = List.length r.o_events and lb = List.length s.o_events in
  if la <> lb then
    fail
      (Printf.sprintf "observer event count mismatch: %d vs %d\n%s" la lb
         (ctx ()));
  List.iteri
    (fun i (ea, eb) ->
      if not (event_equal ea eb) then
        fail
          (Printf.sprintf "observer event %d mismatch: %s vs %s\n%s" i
             (pp_event ea) (pp_event eb) (ctx ())))
    (List.combine r.o_events s.o_events)

let qfail msg = QCheck.Test.fail_report msg

let diff_check ?(observe = true) ?cache_config ?fuel (p : Ir.Program.t) =
  let r = run_one ~observe ?cache_config ?fuel Sim.Interp.Reference p in
  let s = run_one ~observe ?cache_config ?fuel Sim.Interp.Staged p in
  check_outcomes qfail p r s;
  true

(* ------------------------------------------------------------------ *)
(* Program generators                                                  *)
(* ------------------------------------------------------------------ *)

(* The Fleet.Genprog CFG generator wrapped into a program. Its functions are
   deliberately type-sloppy (int immediates assigned to float registers,
   loads of float arrays into int contexts, reads of never-written
   registers), so a large share of these programs take the staged
   engine's fallback path — which must then be indistinguishable from
   the reference engine, errors included. *)
let wrap_memo_func (f : Ir.Func.t) : Ir.Program.t =
  Ir.Program.v
    ~globals:
      [ { Ir.Program.gname = "A"; elem = Ir.Types.F32; dims = [ 8 ] };
        { Ir.Program.gname = "B"; elem = Ir.Types.F32; dims = [ 8 ] } ]
    ~funcs:[ { f with Ir.Func.name = "main"; params = [] } ]
    ~main:"main"

let arb_memo_program =
  QCheck.make
    ~print:(fun f -> Ir.Program.to_string (wrap_memo_func f))
    Fleet.Genprog.gen_ir_func

(* A richer, mostly well-typed generator aimed at the staged fast path:
   typed register banks (float f0-f3, int n0-n3, bool c0-c1), integer
   division/remainder with zero denominators, shifts, every comparison
   and unary operator, int and float arrays with sometimes-out-of-bounds
   indices, int and float select, calls (int, float, bool and void
   returns), and an intentionally never-written register "u". *)

let freg i = Ir.Instr.reg (Printf.sprintf "f%d" i) Ir.Types.F32
let ireg i = Ir.Instr.reg (Printf.sprintf "n%d" i) Ir.Types.I32
let breg i = Ir.Instr.reg (Printf.sprintf "c%d" i) Ir.Types.Bool
let kreg = Ir.Instr.reg "k" Ir.Types.I32
let ureg = Ir.Instr.reg "u" Ir.Types.I32 (* never written: uninit reads *)

(* Shift amount, written once in the entry block so every later read is
   proven defined. *)
let sreg = Ir.Instr.reg "s" Ir.Types.I32

open QCheck.Gen

let gen_iop =
  frequency
    [ 16, map (fun i -> Ir.Instr.Reg (ireg i)) (int_range 0 3);
      4, return (Ir.Instr.Reg kreg);
      1, return (Ir.Instr.Reg ureg);
      12, map (fun n -> Ir.Instr.Imm_int n) (int_range (-3) 9) ]

let gen_fop =
  frequency
    [ 4, map (fun i -> Ir.Instr.Reg (freg i)) (int_range 0 3);
      2,
      map
        (fun n -> Ir.Instr.Imm_float (float_of_int n /. 4.0))
        (int_range (-8) 8) ]

let gen_bop =
  frequency
    [ 3, map (fun i -> Ir.Instr.Reg (breg i)) (int_range 0 1);
      1, map (fun b -> Ir.Instr.Imm_bool b) bool ]

(* Indices reach one past either end so bounds-fault parity (message
   bytes included) is exercised alongside the hoisted in-bounds case. *)
let gen_idx =
  frequency
    [ 2, map (fun n -> Ir.Instr.Imm_int n) (int_range (-1) 8);
      1, map (fun i -> Ir.Instr.Reg (ireg i)) (int_range 0 3);
      3, return (Ir.Instr.Reg kreg) ]

let gen_fbase = map (fun b -> if b then "A" else "B") bool

let gen_shift_amount =
  frequency
    [ 2, map (fun n -> Ir.Instr.Imm_int n) (int_range 0 31);
      1, return (Ir.Instr.Reg sreg) ]

let gen_typed_instr =
  frequency
    [ 2, map2 (fun d a -> Ir.Instr.Assign (ireg d, a)) (int_range 0 3) gen_iop;
      1, map2 (fun d a -> Ir.Instr.Assign (freg d, a)) (int_range 0 3) gen_fop;
      3,
      (int_range 0 3 >>= fun d ->
       oneofl
         [ Ir.Op.Add; Ir.Op.Sub; Ir.Op.Mul; Ir.Op.Div; Ir.Op.Rem;
           Ir.Op.And; Ir.Op.Or; Ir.Op.Xor ]
       >>= fun op ->
       map2 (fun a b -> Ir.Instr.Binary (ireg d, op, a, b)) gen_iop gen_iop);
      1,
      (int_range 0 3 >>= fun d ->
       oneofl [ Ir.Op.Shl; Ir.Op.Shr ] >>= fun op ->
       map2
         (fun a b -> Ir.Instr.Binary (ireg d, op, a, b))
         gen_iop gen_shift_amount);
      2,
      (int_range 0 3 >>= fun d ->
       oneofl [ Ir.Op.Fadd; Ir.Op.Fsub; Ir.Op.Fmul; Ir.Op.Fdiv ]
       >>= fun op ->
       map2 (fun a b -> Ir.Instr.Binary (freg d, op, a, b)) gen_fop gen_fop);
      2,
      (int_range 0 1 >>= fun d ->
       oneofl
         [ Ir.Op.Lt; Ir.Op.Le; Ir.Op.Gt; Ir.Op.Ge; Ir.Op.Eq; Ir.Op.Ne ]
       >>= fun op ->
       map2 (fun a b -> Ir.Instr.Compare (breg d, op, a, b)) gen_iop gen_iop);
      1,
      (int_range 0 1 >>= fun d ->
       oneofl
         [ Ir.Op.Flt; Ir.Op.Fle; Ir.Op.Fgt; Ir.Op.Fge; Ir.Op.Feq; Ir.Op.Fne ]
       >>= fun op ->
       map2 (fun a b -> Ir.Instr.Compare (breg d, op, a, b)) gen_fop gen_fop);
      1,
      (int_range 0 3 >>= fun d ->
       map3
         (fun c a b -> Ir.Instr.Select (ireg d, c, a, b))
         gen_bop gen_iop gen_iop);
      1,
      (int_range 0 3 >>= fun d ->
       map3
         (fun c a b -> Ir.Instr.Select (freg d, c, a, b))
         gen_bop gen_fop gen_fop);
      1,
      map2 (fun d a -> Ir.Instr.Unary (ireg d, Ir.Op.Neg, a)) (int_range 0 3)
        gen_iop;
      1,
      map2 (fun d a -> Ir.Instr.Unary (breg d, Ir.Op.Not, a)) (int_range 0 1)
        gen_bop;
      1,
      map2 (fun d a -> Ir.Instr.Unary (freg d, Ir.Op.Fneg, a)) (int_range 0 3)
        gen_fop;
      1,
      map2
        (fun d a -> Ir.Instr.Unary (ireg d, Ir.Op.Int_of_float, a))
        (int_range 0 3) gen_fop;
      1,
      map2
        (fun d a -> Ir.Instr.Unary (freg d, Ir.Op.Float_of_int, a))
        (int_range 0 3) gen_iop;
      2,
      (int_range 0 3 >>= fun d ->
       map2
         (fun base index -> Ir.Instr.Load (freg d, { Ir.Instr.base; index }))
         gen_fbase gen_idx);
      2,
      map2
        (fun index d -> Ir.Instr.Load (ireg d, { Ir.Instr.base = "N"; index }))
        gen_idx (int_range 0 3);
      2,
      (gen_fbase >>= fun base ->
       map2
         (fun index v -> Ir.Instr.Store ({ Ir.Instr.base; index }, v))
         gen_idx gen_fop);
      2,
      map2
        (fun index v -> Ir.Instr.Store ({ Ir.Instr.base = "N"; index }, v))
        gen_idx gen_iop;
      1,
      (int_range 0 3 >>= fun d ->
       map2
         (fun a y -> Ir.Instr.Call (Some (ireg d), "g", [ a; y ]))
         gen_iop gen_fop);
      1,
      (int_range 0 3 >>= fun d ->
       map (fun y -> Ir.Instr.Call (Some (freg d), "q", [ y ])) gen_fop);
      1,
      (int_range 0 1 >>= fun d ->
       map (fun a -> Ir.Instr.Call (Some (breg d), "p", [ a ])) gen_iop);
      1, map (fun a -> Ir.Instr.Call (None, "v", [ a ])) gen_iop ]

let gen_typed_body = list_size (int_range 2 8) gen_typed_instr

(* Entry-block initialisation of a random subset of the typed registers
   (each with probability 7/8): later reads of an initialised register
   are proven defined and run the staged engine's specialised closures,
   the rest go through its checked readers. "k", the most frequent
   index, starts in bounds; "u" is never written and the shift amount
   "s" always is. *)
let gen_prologue =
  let maybe g = frequency [ 1, return []; 7, map (fun i -> [ i ]) g ] in
  let init reg imm = maybe (map (fun o -> Ir.Instr.Assign (reg, o)) imm) in
  let iimm = map (fun n -> Ir.Instr.Imm_int n) (int_range (-3) 9) in
  let fimm =
    map (fun n -> Ir.Instr.Imm_float (float_of_int n /. 4.0)) (int_range (-8) 8)
  in
  let bimm = map (fun b -> Ir.Instr.Imm_bool b) bool in
  map
    (fun (inits, amount) ->
      Ir.Instr.Assign (sreg, Ir.Instr.Imm_int amount) :: List.concat inits)
    (pair
       (flatten_l
          (init kreg (map (fun n -> Ir.Instr.Imm_int n) (int_range 0 7))
          :: List.init 4 (fun i -> init (ireg i) iimm)
          @ List.init 4 (fun i -> init (freg i) fimm)
          @ List.init 2 (fun i -> init (breg i) bimm)))
       (int_range 0 31))

(* [Const_cond] branches on an immediate. [Late_cond] branches on the
   bool c1, which the entry block never writes and only one path into
   the join does; the must-defined analysis cannot prove it, so the
   branch reads it through the checked reader (and raises when the other
   path was taken, unless the join's own body wrote it). *)
type shape = Straight | Diamond | Const_cond | Late_cond | Loop

let gen_typed_func =
  oneofl [ Straight; Diamond; Const_cond; Late_cond; Loop ] >>= fun shape ->
  gen_prologue >>= fun prologue ->
  gen_typed_body >>= fun b1 ->
  gen_typed_body >>= fun b2 ->
  gen_typed_body >>= fun b3 ->
  gen_iop >>= fun cmp_rhs ->
  gen_iop >>= fun retv ->
  bool >>= fun cond ->
  let block label instrs term = Ir.Block.v ~label ~instrs ~term in
  let ret = Ir.Instr.Return (Some retv) in
  let blocks =
    match shape with
    | Straight ->
      [ block "entry" (prologue @ b1) (Ir.Instr.Jump "mid");
        block "mid" b2 (Ir.Instr.Jump "last");
        block "last" b3 ret ]
    | Diamond ->
      [ block "entry"
          (prologue
          @ b1
          @ [ Ir.Instr.Compare
                (breg 0, Ir.Op.Lt, Ir.Instr.Reg (ireg 0), cmp_rhs) ])
          (Ir.Instr.Branch (Ir.Instr.Reg (breg 0), "then", "else"));
        block "then" b2 (Ir.Instr.Jump "join");
        block "else" b3 (Ir.Instr.Jump "join");
        block "join" [] ret ]
    | Const_cond ->
      [ block "entry" (prologue @ b1)
          (Ir.Instr.Branch (Ir.Instr.Imm_bool cond, "then", "else"));
        block "then" b2 (Ir.Instr.Jump "join");
        block "else" b3 (Ir.Instr.Jump "join");
        block "join" [] ret ]
    | Late_cond ->
      let writes_c1 i =
        match Ir.Instr.def i with
        | Some r -> String.equal r.Ir.Instr.id "c1"
        | None -> false
      in
      [ block "entry"
          (List.filter (fun i -> not (writes_c1 i)) (prologue @ b1)
          @ [ Ir.Instr.Compare
                (breg 0, Ir.Op.Lt, Ir.Instr.Reg (ireg 0), cmp_rhs) ])
          (Ir.Instr.Branch (Ir.Instr.Reg (breg 0), "then", "join"));
        block "then"
          (b2
          @ [ Ir.Instr.Compare
                (breg 1, Ir.Op.Ge, Ir.Instr.Reg (ireg 1), cmp_rhs) ])
          (Ir.Instr.Jump "join");
        block "join" b3
          (Ir.Instr.Branch (Ir.Instr.Reg (breg 1), "yes", "no"));
        block "yes" [] ret;
        block "no" [] (Ir.Instr.Return (Some cmp_rhs)) ]
    | Loop ->
      [ block "entry"
          (prologue @ (Ir.Instr.Assign (kreg, Ir.Instr.Imm_int 0) :: b1))
          (Ir.Instr.Jump "head");
        block "head"
          [ Ir.Instr.Compare
              (breg 0, Ir.Op.Lt, Ir.Instr.Reg kreg, Ir.Instr.Imm_int 6) ]
          (Ir.Instr.Branch (Ir.Instr.Reg (breg 0), "body", "exit"));
        block "body"
          (b2
          @ [ Ir.Instr.Binary
                (kreg, Ir.Op.Add, Ir.Instr.Reg kreg, Ir.Instr.Imm_int 1) ])
          (Ir.Instr.Jump "head");
        block "exit" b3 ret ]
  in
  return (Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32) ~blocks)

(* Helper callees: [g] divides by a caller-controlled value (so runtime
   errors unwind through staged call frames), [q]/[p]/[v] cover float,
   bool and void return kinds. *)
let helper_funcs =
  let x = Ir.Instr.reg "x" Ir.Types.I32 in
  let y = Ir.Instr.reg "y" Ir.Types.F32 in
  let a = Ir.Instr.reg "a" Ir.Types.I32 in
  let w = Ir.Instr.reg "w" Ir.Types.I32 in
  let c = Ir.Instr.reg "c0" Ir.Types.Bool in
  let f0 = Ir.Instr.reg "f0" Ir.Types.F32 in
  let block label instrs term = Ir.Block.v ~label ~instrs ~term in
  [ Ir.Func.v ~name:"g" ~params:[ x; y ] ~ret:(Some Ir.Types.I32)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Unary (w, Ir.Op.Int_of_float, Ir.Instr.Reg y);
              Ir.Instr.Binary
                (w, Ir.Op.Div, Ir.Instr.Imm_int 12, Ir.Instr.Reg x);
              Ir.Instr.Binary (w, Ir.Op.Add, Ir.Instr.Reg w, Ir.Instr.Reg x) ]
            (Ir.Instr.Return (Some (Ir.Instr.Reg w))) ];
    Ir.Func.v ~name:"q" ~params:[ y ] ~ret:(Some Ir.Types.F32)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Binary
                (f0, Ir.Op.Fmul, Ir.Instr.Reg y, Ir.Instr.Imm_float 2.0) ]
            (Ir.Instr.Return (Some (Ir.Instr.Reg f0))) ];
    Ir.Func.v ~name:"p" ~params:[ a ] ~ret:(Some Ir.Types.Bool)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Compare
                (c, Ir.Op.Lt, Ir.Instr.Reg a, Ir.Instr.Imm_int 4) ]
            (Ir.Instr.Return (Some (Ir.Instr.Reg c))) ];
    Ir.Func.v ~name:"v" ~params:[ a ] ~ret:None
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Store
                ({ Ir.Instr.base = "N"; index = Ir.Instr.Imm_int 0 },
                 Ir.Instr.Reg a) ]
            (Ir.Instr.Return None) ] ]

let wrap_typed_func (f : Ir.Func.t) : Ir.Program.t =
  Ir.Program.v
    ~globals:
      [ { Ir.Program.gname = "A"; elem = Ir.Types.F32; dims = [ 8 ] };
        { Ir.Program.gname = "B"; elem = Ir.Types.F32; dims = [ 8 ] };
        { Ir.Program.gname = "N"; elem = Ir.Types.I32; dims = [ 8 ] } ]
    ~funcs:(f :: helper_funcs)
    ~main:"main"

let arb_typed_program =
  QCheck.make
    ~print:(fun f -> Ir.Program.to_string (wrap_typed_func f))
    gen_typed_func

(* ------------------------------------------------------------------ *)
(* QCheck differential properties                                      *)
(* ------------------------------------------------------------------ *)

let test_diff_memo =
  Testutil.qtest ~count:300 "memo-generator programs agree" arb_memo_program
    (fun f -> diff_check (wrap_memo_func f))

let test_diff_typed =
  Testutil.qtest ~count:300 "typed-generator programs agree"
    arb_typed_program
    (fun f -> diff_check (wrap_typed_func f))

let test_diff_cache =
  Testutil.qtest ~count:100 "cache simulation agrees" arb_typed_program
    (fun f ->
      diff_check ~observe:false ~cache_config:Sim.Cache.default_l1
        (wrap_typed_func f))

(* Exact fuel boundary: a run consuming exactly N instructions+blocks
   must succeed at fuel=N and N+1 and raise Out_of_fuel at fuel=N-1,
   identically on both engines. N is reconstructed from the reference
   profile: total instructions plus one unit per block entry. *)
let fuel_needed (p : Ir.Program.t) (profile : Sim.Profile.t) =
  let block_entries =
    List.fold_left
      (fun acc (f : Ir.Func.t) ->
        List.fold_left
          (fun acc (b : Ir.Block.t) ->
            acc
            + Sim.Profile.block_exec profile ~func:f.Ir.Func.name
                ~label:b.Ir.Block.label)
          acc f.Ir.Func.blocks)
      0 p.Ir.Program.funcs
  in
  Sim.Profile.total_instrs profile + block_entries

let test_fuel_boundary =
  Testutil.qtest ~count:150 "Out_of_fuel boundary is engine-independent"
    arb_typed_program
    (fun f ->
      let p = wrap_typed_func f in
      match Sim.Interp.run ~engine:Sim.Interp.Reference p with
      | exception (Sim.Interp.Runtime_error _ | Sim.Interp.Out_of_fuel) ->
        true (* aborting programs are covered by the other properties *)
      | res ->
        let n = fuel_needed p res.Sim.Interp.profile in
        let at fuel engine =
          match Sim.Interp.run ~engine ~fuel p with
          | _ -> `Done
          | exception Sim.Interp.Out_of_fuel -> `Fuel
        in
        if at (n - 1) Sim.Interp.Reference <> `Fuel then
          QCheck.Test.fail_reportf "reference: fuel %d did not exhaust" (n - 1);
        if at n Sim.Interp.Reference <> `Done then
          QCheck.Test.fail_reportf "reference: fuel %d did not complete" n;
        List.for_all
          (fun fuel -> diff_check ~observe:false ~fuel p)
          [ n - 1; n; n + 1 ])

(* ------------------------------------------------------------------ *)
(* Targeted parity cases                                               *)
(* ------------------------------------------------------------------ *)

let straight ?(globals = []) instrs ret =
  Ir.Program.v ~globals
    ~funcs:
      [ Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32)
          ~blocks:[ Ir.Block.v ~label:"entry" ~instrs ~term:ret ] ]
    ~main:"main"

let expect_error name p expected =
  List.iter
    (fun engine ->
      match Sim.Interp.run ~engine p with
      | _ ->
        Alcotest.failf "%s (%s): expected Runtime_error" name
          (Sim.Interp.engine_name engine)
      | exception Sim.Interp.Runtime_error m ->
        Alcotest.(check string)
          (name ^ " @ " ^ Sim.Interp.engine_name engine)
          expected m)
    [ Sim.Interp.Reference; Sim.Interp.Staged ]

let n0 = Ir.Instr.reg "n0" Ir.Types.I32

let test_error_messages () =
  expect_error "div by zero"
    (straight
       [ Ir.Instr.Binary (n0, Ir.Op.Div, Ir.Instr.Imm_int 5, Ir.Instr.Imm_int 0) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "integer division by zero";
  expect_error "rem by zero"
    (straight
       [ Ir.Instr.Binary (n0, Ir.Op.Rem, Ir.Instr.Imm_int 5, Ir.Instr.Imm_int 0) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "integer remainder by zero";
  expect_error "uninitialized register"
    (straight []
       (Ir.Instr.Return (Some (Ir.Instr.Reg n0))))
    "uninitialized register %n0 in main";
  (* Both operands uninitialized: the reference engine evaluates the
     second operand first (right-to-left application), so its name must
     appear in the message — on both engines. *)
  let u1 = Ir.Instr.reg "u1" Ir.Types.I32 in
  let u2 = Ir.Instr.reg "u2" Ir.Types.I32 in
  expect_error "binary operand order"
    (straight
       [ Ir.Instr.Binary (n0, Ir.Op.Add, Ir.Instr.Reg u1, Ir.Instr.Reg u2) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "uninitialized register %u2 in main";
  let gn = [ { Ir.Program.gname = "N"; elem = Ir.Types.I32; dims = [ 8 ] } ] in
  expect_error "constant index out of bounds"
    (straight ~globals:gn
       [ Ir.Instr.Load (n0, { Ir.Instr.base = "N"; index = Ir.Instr.Imm_int 9 }) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "memory fault: index 9 out of bounds for N[8]";
  (* Store evaluates its value before the bounds check, so an
     uninitialized stored value wins over the bad index. *)
  expect_error "store value before bounds"
    (straight ~globals:gn
       [ Ir.Instr.Store
           ({ Ir.Instr.base = "N"; index = Ir.Instr.Imm_int 9 },
            Ir.Instr.Reg u1) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "uninitialized register %u1 in main"

(* ------------------------------------------------------------------ *)
(* 28-benchmark suite parity + fast-path sanity                        *)
(* ------------------------------------------------------------------ *)

(* Real benchmarks execute millions of blocks, so their observer stream
   is folded into a rolling hash (plus an exact event count) in constant
   memory: block-entry order, function names, labels and return values
   — the exact sequence Rtl.Cosim keys its golden snapshots off. *)
let folding_observer () =
  let h = ref 0 and count = ref 0 in
  let mix x y = h := (!h * 1000003) lxor Hashtbl.hash x lxor Hashtbl.hash y in
  let obs =
    { Sim.Interp.obs_block =
        (fun ~func ~label ~read:_ ~mem:_ ->
          incr count;
          mix func label);
      obs_return =
        (fun ~func ~read:_ ~value ~mem:_ ->
          incr count;
          mix func (pp_value_opt value)) }
  in
  obs, h, count

let run_bench_engine bname ?observer engine p =
  match Sim.Interp.run ~engine ?observer p with
  | res -> res
  | exception e ->
    Alcotest.failf "%s (%s): %s" bname
      (Sim.Interp.engine_name engine)
      (Printexc.to_string e)

let check_bench_parity bname (r : Sim.Interp.result) (s : Sim.Interp.result) =
  if not (value_opt_equal r.Sim.Interp.return_value s.Sim.Interp.return_value)
  then
    Alcotest.failf "%s: return mismatch %s vs %s" bname
      (pp_value_opt r.Sim.Interp.return_value)
      (pp_value_opt s.Sim.Interp.return_value);
  (match Sim.Memory.diff r.Sim.Interp.memory s.Sim.Interp.memory with
   | [] -> ()
   | (base, detail) :: _ ->
     Alcotest.failf "%s: memory mismatch at %s: %s" bname base detail);
  Alcotest.(check string)
    (bname ^ " profile bytes")
    (Digest.to_hex (Digest.string (Marshal.to_string r.Sim.Interp.profile [])))
    (Digest.to_hex (Digest.string (Marshal.to_string s.Sim.Interp.profile [])))

let test_suite_parity () =
  List.iter
    (fun (b : Cayman_suites.Suite.benchmark) ->
      let p = Cayman_suites.Suite.compile b in
      (* The staged engine must actually take its fast path on real
         benchmarks — falling back would make the speedup a lie. *)
      (match Cayman_sim.Interp_staged.analyze p with
       | Some _ -> ()
       | None ->
         Alcotest.failf "%s fails the staged cleanliness analysis" b.name);
      let r = run_bench_engine b.name Sim.Interp.Reference p in
      let s = run_bench_engine b.name Sim.Interp.Staged p in
      check_bench_parity b.name r s)
    Cayman_suites.Suite.all

(* Observer-stream parity on the Fig. 6 subset (one benchmark per
   suite); the full 28 would double the wall time for no extra signal. *)
let test_fig6_observer_parity () =
  List.iter
    (fun name ->
      let b = Cayman_suites.Suite.find_exn name in
      let p = Cayman_suites.Suite.compile b in
      let obs_r, h_r, n_r = folding_observer () in
      let obs_s, h_s, n_s = folding_observer () in
      let r = run_bench_engine b.name ~observer:obs_r Sim.Interp.Reference p in
      let s = run_bench_engine b.name ~observer:obs_s Sim.Interp.Staged p in
      Alcotest.(check int) (b.name ^ " observer event count") !n_r !n_s;
      Alcotest.(check int) (b.name ^ " observer stream hash") !h_r !h_s;
      check_bench_parity b.name r s)
    Cayman_suites.Suite.fig6

(* ------------------------------------------------------------------ *)
(* Engine selection plumbing                                           *)
(* ------------------------------------------------------------------ *)

let test_engine_selection () =
  Alcotest.(check string) "env var" "CAYMAN_INTERP" Sim.Interp.engine_env_var;
  let eng = Alcotest.testable
      (Fmt.of_to_string Sim.Interp.engine_name) ( = )
  in
  Alcotest.(check (option eng)) "parse staged" (Some Sim.Interp.Staged)
    (Sim.Interp.engine_of_string "staged");
  Alcotest.(check (option eng)) "parse reference" (Some Sim.Interp.Reference)
    (Sim.Interp.engine_of_string " Reference ");
  Alcotest.(check (option eng)) "parse garbage" None
    (Sim.Interp.engine_of_string "jit");
  (* Override wins over the environment and is restored by with_engine.
     The ambient CAYMAN_INTERP (set by the CI matrix) is restored
     afterwards so the remaining suites keep running under it. *)
  let saved = Sys.getenv_opt Sim.Interp.engine_env_var in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Sim.Interp.engine_env_var (Option.value saved ~default:"");
      Sim.Interp.clear_engine ())
    (fun () ->
      Unix.putenv Sim.Interp.engine_env_var "reference";
      Sim.Interp.clear_engine ();
      Alcotest.(check eng) "env respected" Sim.Interp.Reference
        (Sim.Interp.current_engine ());
      Sim.Interp.with_engine Sim.Interp.Staged (fun () ->
          Alcotest.(check eng) "override wins" Sim.Interp.Staged
            (Sim.Interp.current_engine ()));
      Alcotest.(check eng) "override restored" Sim.Interp.Reference
        (Sim.Interp.current_engine ());
      Unix.putenv Sim.Interp.engine_env_var "";
      Sim.Interp.clear_engine ();
      Alcotest.(check eng) "default is staged" Sim.Interp.default_engine
        (Sim.Interp.current_engine ()))

let tests =
  [ test_diff_memo;
    test_diff_typed;
    test_diff_cache;
    test_fuel_boundary;
    Alcotest.test_case "exact error-message parity" `Quick
      test_error_messages;
    Alcotest.test_case "28-benchmark suite parity" `Quick test_suite_parity;
    Alcotest.test_case "fig6 observer-stream parity" `Quick
      test_fig6_observer_parity;
    Alcotest.test_case "engine selection plumbing" `Quick
      test_engine_selection ]
