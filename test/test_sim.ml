(* Tests for the simulation substrate: memory, interpreter semantics
   (including a qcheck comparison against an OCaml reference evaluator),
   fuel, and profile consistency. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

let test_memory_basics () =
  let program =
    Cayman_frontend.Lower.compile
      {|int a[4]; float f[2];
        int main() { a[0] = 7; f[1] = 2.5; return a[0]; }|}
  in
  let res = Sim.Interp.run program in
  let m = res.Sim.Interp.memory in
  Alcotest.(check int) "int cell" 7
    (match Sim.Memory.load m ~base:"a" ~index:0 with
     | Sim.Value.Vint n -> n
     | Sim.Value.Vfloat _ | Sim.Value.Vbool _ -> -1);
  Alcotest.(check (float 1e-9)) "float cell" 2.5
    (match Sim.Memory.load m ~base:"f" ~index:1 with
     | Sim.Value.Vfloat x -> x
     | Sim.Value.Vint _ | Sim.Value.Vbool _ -> nan);
  Alcotest.(check int) "size" 4 (Sim.Memory.size m "a");
  (match Sim.Memory.load m ~base:"a" ~index:4 with
   | _ -> Alcotest.fail "out of bounds must fault"
   | exception Sim.Memory.Fault _ -> ());
  (match Sim.Memory.load m ~base:"nope" ~index:0 with
   | _ -> Alcotest.fail "unknown array must fault"
   | exception Sim.Memory.Fault _ -> ())

let test_runtime_errors () =
  let run src =
    let program = Cayman_frontend.Lower.compile src in
    Sim.Interp.run program
  in
  (match run "int a[2]; int main() { a[5] = 1; return 0; }" with
   | _ -> Alcotest.fail "oob store must raise"
   | exception Sim.Interp.Runtime_error _ -> ());
  (match run "int main() { int x = 1; int y = 0; return x / y; }" with
   | _ -> Alcotest.fail "division by zero must raise"
   | exception Sim.Interp.Runtime_error _ -> ());
  (match run "int main() { int x = 1; return x % 0; }" with
   | _ -> Alcotest.fail "mod zero must raise"
   | exception Sim.Interp.Runtime_error _ -> ())

let test_fuel () =
  let program =
    Cayman_frontend.Lower.compile
      "int main() { int x = 0; while (x < 2) { x = x * 1; } return x; }"
  in
  match Sim.Interp.run ~fuel:10_000 program with
  | _ -> Alcotest.fail "infinite loop must run out of fuel"
  | exception Sim.Interp.Out_of_fuel -> ()

let test_profile_counts () =
  let _, res, program =
    Testutil.compile_run
      {|const int N = 13;
        int a[N];
        int main() {
          for (int i = 0; i < N; i++) { a[i] = i; }
          return a[3];
        }|}
  in
  let profile = res.Sim.Interp.profile in
  let f = Ir.Program.func_exn program "main" in
  (* find the loop body and header blocks *)
  let dom = An.Dominance.dominators f in
  let loops = An.Loops.find f dom in
  let l = List.hd loops in
  let header = l.An.Loops.header in
  Alcotest.(check int) "header executes N+1 times" 14
    (Sim.Profile.block_exec profile ~func:"main" ~label:header);
  Alcotest.(check (float 0.01)) "avg trip" 13.0
    (Sim.Profile.avg_trip f profile l);
  Alcotest.(check int) "main called once" 1
    (Sim.Profile.func_calls profile "main")

let test_profile_totals_consistency () =
  (* total cycles equal the sum of per-block cycles plus callee blocks *)
  let _, res, program =
    Testutil.compile_run
      {|const int N = 6;
        int a[N];
        int helper(int k) { return k * 2; }
        int main() {
          int s = 0;
          for (int i = 0; i < N; i++) { s += helper(i); a[i] = s; }
          return s;
        }|}
  in
  let profile = res.Sim.Interp.profile in
  let sum =
    List.fold_left
      (fun acc (f : Ir.Func.t) ->
        List.fold_left
          (fun acc (b : Ir.Block.t) ->
            acc + Sim.Profile.block_cycles f profile ~label:b.Ir.Block.label)
          acc f.Ir.Func.blocks)
      0 program.Ir.Program.funcs
  in
  Alcotest.(check int) "cycles attribute exactly to blocks"
    (Sim.Profile.total_cycles profile) sum

let test_region_profile () =
  let _, res, program =
    Testutil.compile_run
      {|const int N = 10;
        int a[N];
        void fill() {
          for (int i = 0; i < N; i++) { a[i] = i; }
        }
        int main() {
          for (int t = 0; t < 3; t++) { fill(); }
          return a[2];
        }|}
  in
  let profile = res.Sim.Interp.profile in
  let f = Ir.Program.func_exn program "fill" in
  let root = An.Region.pst f in
  (* whole-function region entered 3 times *)
  Alcotest.(check int) "fill region entries" 3
    (Sim.Profile.region_entries f profile root);
  (* its loop region is also entered 3 times *)
  let loop_region = ref None in
  An.Region.iter
    (fun r ->
      if r.An.Region.kind = An.Region.Loop_region && !loop_region = None then
        loop_region := Some r)
    root;
  (match !loop_region with
   | Some r ->
     Alcotest.(check int) "loop region entries" 3
       (Sim.Profile.region_entries f profile r);
     Alcotest.(check bool) "loop region cycles positive" true
       (Sim.Profile.region_cycles f profile r > 0)
   | None -> Alcotest.fail "no loop region in fill");
  (* region cycles of the root equal the sum over its blocks *)
  let by_blocks =
    List.fold_left
      (fun acc (b : Ir.Block.t) ->
        acc + Sim.Profile.block_cycles f profile ~label:b.Ir.Block.label)
      0 f.Ir.Func.blocks
  in
  Alcotest.(check int) "root region cycles = block sum" by_blocks
    (Sim.Profile.region_cycles f profile root)

let test_determinism () =
  let src = (Cayman_suites.Suite.find_exn "atax").Cayman_suites.Suite.source in
  let p1 = Cayman_frontend.Lower.compile src in
  let p2 = Cayman_frontend.Lower.compile src in
  let r1 = Sim.Interp.run p1 in
  let r2 = Sim.Interp.run p2 in
  Alcotest.(check int) "same cycles" (Sim.Profile.total_cycles r1.Sim.Interp.profile)
    (Sim.Profile.total_cycles r2.Sim.Interp.profile);
  Alcotest.(check bool) "same return" true
    (match r1.Sim.Interp.return_value, r2.Sim.Interp.return_value with
     | Some a, Some b -> Sim.Value.equal a b
     | None, None -> true
     | Some _, None | None, Some _ -> false)

(* The staged engine's instruction closures read and write the register
   banks directly, so interpreting a float kernel allocates nothing per
   instruction: what remains is per-run set-up (frames, closures,
   profile slots), a small fraction of a word per instruction. *)
let test_staged_no_alloc () =
  List.iter
    (fun name ->
      let b = Cayman_suites.Suite.find_exn name in
      let p = Cayman_suites.Suite.compile b in
      let before = Gc.minor_words () in
      let res = Sim.Interp.run ~engine:Sim.Interp.Staged p in
      let words = Gc.minor_words () -. before in
      let instrs = Sim.Profile.total_instrs res.Sim.Interp.profile in
      let per_instr = words /. float_of_int instrs in
      if per_instr >= 0.1 then
        Alcotest.failf "%s: %.3f minor words per instruction (%d instrs)" name
          per_instr instrs)
    [ "atax"; "fft" ]

(* qcheck: random integer expressions evaluated by the interpreter match
   an OCaml reference evaluation. *)
type iexpr =
  | Lit of int
  | Add of iexpr * iexpr
  | Sub of iexpr * iexpr
  | Mul of iexpr * iexpr
  | Neg of iexpr

let rec eval_ref = function
  | Lit n -> n
  | Add (a, b) -> eval_ref a + eval_ref b
  | Sub (a, b) -> eval_ref a - eval_ref b
  | Mul (a, b) -> eval_ref a * eval_ref b
  | Neg a -> -eval_ref a

let rec expr_to_minic = function
  | Lit n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (expr_to_minic a) (expr_to_minic b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (expr_to_minic a) (expr_to_minic b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (expr_to_minic a) (expr_to_minic b)
  | Neg a -> Printf.sprintf "(-%s)" (expr_to_minic a)

let gen_iexpr =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then map (fun v -> Lit v) (int_range (-20) 20)
            else
              frequency
                [ 1, map (fun v -> Lit v) (int_range (-20) 20);
                  2, map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2));
                  2, map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2));
                  2, map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2));
                  1, map (fun a -> Neg a) (self (n - 1)) ])
          (min n 8)))

let arb_iexpr = QCheck.make ~print:expr_to_minic gen_iexpr

let qcheck_interp_matches_reference =
  Testutil.qtest ~count:120 "interpreter matches reference arithmetic"
    arb_iexpr (fun e ->
      let expected = eval_ref e in
      (* compare modulo truncation into a bounded int to avoid overflow
         discrepancies (none expected: both use OCaml ints) *)
      let src =
        Printf.sprintf "int main() { return %s; }" (expr_to_minic e)
      in
      let got, _, _ = Testutil.compile_run src in
      got = expected)

(* qcheck: interpreting a sum over a random int array matches a fold. *)
let qcheck_array_sum =
  Testutil.qtest ~count:40 "array sum matches fold"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (int_range (-50) 50))
    (fun xs ->
      let n = List.length xs in
      let inits =
        String.concat "\n"
          (List.mapi (fun i v -> Printf.sprintf "a[%d] = %d;" i v) xs)
      in
      let src =
        Printf.sprintf
          {|const int N = %d;
            int a[N];
            int main() {
              %s
              int s = 0;
              for (int i = 0; i < N; i++) { s += a[i]; }
              return s;
            }|}
          n inits
      in
      let got, _, _ = Testutil.compile_run src in
      got = List.fold_left ( + ) 0 xs)

let tests =
  [ Alcotest.test_case "memory basics" `Quick test_memory_basics;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "fuel exhausts" `Quick test_fuel;
    Alcotest.test_case "profile counts" `Quick test_profile_counts;
    Alcotest.test_case "profile totals consistent" `Quick
      test_profile_totals_consistency;
    Alcotest.test_case "region profiling" `Quick test_region_profile;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "staged engine does not allocate per instruction"
      `Quick test_staged_no_alloc;
    qcheck_interp_matches_reference;
    qcheck_array_sum ]
