(* Unit tests for the parallel evaluation engine: order preservation,
   exception propagation, determinism across job counts, and the jobs
   configuration resolution. *)

exception Boom of int

(* A workload whose completion order is deliberately scrambled: later
   tasks finish first, so any pool that reported results in completion
   order would fail the order checks below. *)
let slow_square n i =
  let spin = (n - i) * 2048 in
  let acc = ref 0 in
  for k = 1 to spin do
    acc := (!acc + k) mod 7919
  done;
  (i * i) + (!acc * 0)

let test_map_preserves_order () =
  let xs = List.init 40 (fun i -> i) in
  let expected = List.map (fun i -> i * i) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares in order, jobs=%d" jobs)
        expected
        (Engine.Pool.map ~jobs (slow_square 40) xs))
    [ 1; 2; 4; 7 ]

let test_mapi_indices () =
  let xs = [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check (list string))
    "mapi passes task indices" [ "0a"; "1b"; "2c"; "3d"; "4e" ]
    (Engine.Pool.mapi ~jobs:4 (fun i s -> string_of_int i ^ s) xs)

let test_edge_cases () =
  Alcotest.(check (list int)) "empty list" []
    (Engine.Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (Engine.Pool.map ~jobs:4 (fun x -> x * x) [ 3 ]);
  Alcotest.(check (list int)) "fewer tasks than workers" [ 1; 4 ]
    (Engine.Pool.map ~jobs:8 (fun x -> x * x) [ 1; 2 ])

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Engine.Pool.map ~jobs
          (fun i -> if i = 5 then raise (Boom i) else i)
          (List.init 12 (fun i -> i))
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom 5 -> ())
    [ 1; 4 ]

let test_exception_lowest_index_wins () =
  (* Tasks 3 and 9 both fail; every schedule must surface task 3's
     exception (all tasks run to completion, lowest index is re-raised). *)
  for _ = 1 to 10 do
    match
      Engine.Pool.map ~jobs:4
        (fun i ->
          if i = 9 then raise (Boom 9)
          else if i = 3 then begin
            (* make task 3 slow so task 9 usually fails first *)
            ignore (slow_square 1 0);
            raise (Boom 3)
          end
          else i)
        (List.init 12 (fun i -> i))
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom n -> Alcotest.(check int) "lowest failing index" 3 n
  done

let test_jobs1_equals_jobs4 () =
  (* Nondeterministic schedule, deterministic result: mix fast and slow
     tasks and require bit-identical output lists. *)
  let xs = List.init 64 (fun i -> i) in
  let f i =
    let w = if i mod 3 = 0 then 4096 else 16 in
    let acc = ref (float_of_int i) in
    for k = 1 to w do
      acc := !acc +. (1.0 /. float_of_int (k + i + 1))
    done;
    !acc
  in
  let seq = Engine.Pool.map ~jobs:1 f xs in
  let par = Engine.Pool.map ~jobs:4 f xs in
  Alcotest.(check bool) "jobs=1 equals jobs=4 (bit-exact floats)" true
    (List.for_all2 (fun a b -> Float.equal a b) seq par)

let test_nested_map_falls_back_sequential () =
  (* A task that fans out again must not stack a second layer of
     transient pools (peak domains would approach jobs^2, past the
     runtime's 128-domain cap for larger job counts). The inner
     stateless map detects it is on a pool worker and runs
     sequentially on that worker's own domain, with identical
     results. *)
  let outer = List.init 8 (fun i -> i) in
  let expected =
    List.map (fun i -> List.init 8 (fun j -> (i * 8) + (j * j))) outer
  in
  let per_task =
    Engine.Pool.map ~jobs:4
      (fun i ->
        let self = Domain.self () in
        let inner =
          Engine.Pool.map ~jobs:4
            (fun j -> Domain.self (), (i * 8) + (j * j))
            (List.init 8 (fun j -> j))
        in
        ( List.for_all (fun (d, _) -> d = self) inner,
          List.map snd inner ))
      outer
  in
  Alcotest.(check bool) "inner maps stayed on their task's domain" true
    (List.for_all fst per_task);
  Alcotest.(check (list (list int))) "nested results identical" expected
    (List.map snd per_task)

let test_map_reduce () =
  let xs = List.init 100 (fun i -> i + 1) in
  let total =
    Engine.Pool.map_reduce ~jobs:4 ~map:(fun x -> x * x)
      ~combine:( + ) ~init:0 xs
  in
  Alcotest.(check int) "sum of squares" 338350 total;
  (* non-commutative combine still deterministic: results fold in task
     order *)
  let concat =
    Engine.Pool.map_reduce ~jobs:4 ~map:string_of_int
      ~combine:(fun acc s -> acc ^ s) ~init:"" [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check string) "ordered fold" "12345" concat

let test_pool_reuse () =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "pool size" 4 (Engine.Pool.jobs pool);
      let a = Engine.Pool.run_map pool (fun x -> x + 1) [ 1; 2; 3 ] in
      let b = Engine.Pool.run_map pool (fun x -> x * 2) [ 4; 5; 6 ] in
      let c = Engine.Pool.run_mapi pool (fun i x -> i + x) [ 10; 10; 10 ] in
      Alcotest.(check (list int)) "first batch" [ 2; 3; 4 ] a;
      Alcotest.(check (list int)) "second batch" [ 8; 10; 12 ] b;
      Alcotest.(check (list int)) "third batch" [ 10; 11; 12 ] c)

let test_shutdown_idempotent () =
  let pool = Engine.Pool.create ~jobs:3 () in
  ignore (Engine.Pool.run_map pool (fun x -> x) [ 1; 2; 3 ] : int list);
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool;
  (* trivial inputs bypass the queue, larger ones must fail *)
  match Engine.Pool.run_map pool (fun x -> x) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

let test_config_resolution () =
  let saved = Sys.getenv_opt Engine.Config.env_var in
  (* explicit argument wins and is clamped *)
  Alcotest.(check int) "explicit" 3 (Engine.Config.jobs ~jobs:3 ());
  Alcotest.(check int) "clamped high" Engine.Config.max_jobs
    (Engine.Config.jobs ~jobs:10_000 ());
  (* override beats the environment *)
  Engine.Config.set_jobs 2;
  Alcotest.(check int) "override" 2 (Engine.Config.jobs ());
  Engine.Config.clear_jobs ();
  (* environment variable (the test runner may set it; force a value) *)
  Unix.putenv Engine.Config.env_var "5";
  Alcotest.(check int) "env var" 5 (Engine.Config.jobs ());
  Unix.putenv Engine.Config.env_var "not-a-number";
  Alcotest.(check bool) "garbage env falls through" true
    (Engine.Config.jobs () >= 1);
  Unix.putenv Engine.Config.env_var "";
  Alcotest.(check bool) "empty env falls through" true
    (Engine.Config.jobs () >= 1);
  (* leave the environment as we found it for later suites *)
  Unix.putenv Engine.Config.env_var (Option.value saved ~default:"");
  (* the same resolution path serves CAYMAN_FUEL and CAYMAN_CACHE_MAX_MB:
     a positive value is taken, anything else falls through to the
     default, and an override beats the variable *)
  let check_env ~var ~resolve ~default ~set ~clear =
    let saved = Sys.getenv_opt var in
    clear ();
    List.iter
      (fun (value, expect) ->
        Unix.putenv var value;
        Alcotest.(check int) (Printf.sprintf "%s=%S" var value) expect
          (resolve ()))
      [ "7", 7; "not-a-number", default; "0", default; "", default ];
    Unix.putenv var "7";
    set 3;
    Alcotest.(check int) (var ^ ": override beats env") 3 (resolve ());
    clear ();
    Unix.putenv var (Option.value saved ~default:"")
  in
  check_env ~var:Engine.Config.fuel_env_var
    ~resolve:(fun () -> Engine.Config.fuel ())
    ~default:Engine.Config.default_fuel ~set:Engine.Config.set_fuel
    ~clear:Engine.Config.clear_fuel;
  check_env ~var:"CAYMAN_CACHE_MAX_MB"
    ~resolve:(fun () -> Memo.Store.default_max_bytes () / (1024 * 1024))
    ~default:2048
    ~set:(Engine.Config.set Memo.Store.max_mb)
    ~clear:(fun () -> Engine.Config.clear Memo.Store.max_mb)

let test_clock_wall () =
  let (), dt = Engine.Clock.timed (fun () -> ignore (slow_square 1 0)) in
  Alcotest.(check bool) "elapsed non-negative" true (dt >= 0.0);
  Alcotest.(check bool) "wall clock advances monotonically here" true
    (Engine.Clock.wall () >= 0.0)

let tests =
  [ Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
    Alcotest.test_case "edge cases" `Quick test_edge_cases;
    Alcotest.test_case "worker exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "lowest failing index wins" `Quick
      test_exception_lowest_index_wins;
    Alcotest.test_case "jobs=1 equals jobs=4" `Quick test_jobs1_equals_jobs4;
    Alcotest.test_case "nested map sequential fallback" `Quick
      test_nested_map_falls_back_sequential;
    Alcotest.test_case "map_reduce" `Quick test_map_reduce;
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "shutdown" `Quick test_shutdown_idempotent;
    Alcotest.test_case "jobs resolution" `Quick test_config_resolution;
    Alcotest.test_case "wall clock" `Quick test_clock_wall ]
