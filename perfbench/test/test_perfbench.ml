(* Tests for the benchmark's own arithmetic: order statistics, the tail
   percentile rule, host-speed normalisation, span self times and the serve stream's repeat/fresh
   classification. *)

open Perfbench_core

let close = Alcotest.float 1e-9
let floats = List.map float_of_int

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median (floats [ 5; 1; 3 ]));
  Alcotest.check close "even" 2.5 (Stats.median (floats [ 4; 1; 3; 2 ]));
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ])

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (floats [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles (floats [ 3; 1; 2 ]) in
  Alcotest.check close "q1 of 3" 1.0 q1;
  Alcotest.check close "q2 of 3" 2.0 q2;
  Alcotest.check close "q3 of 3" 3.0 q3;
  let q1, _, q3 = Stats.quartiles [ 1.0; 2.0 ] in
  Alcotest.check close "q1 of 2" 0.75 q1;
  Alcotest.check close "q3 of 2" 2.25 q3

(* Probes of 2, 4 and 4 ms at times 0, 10 and 20 against a 2 ms
   reference: the factor is 2 / 3 on [0, 10] and 1 / 2 on [10, 20]. *)
let test_host_factor () =
  let pts = [ 20.0, 0.004; 0.0, 0.002; 10.0, 0.004 ] in
  let f = Stats.host_factor ~reference:0.002 pts in
  Alcotest.check close "first segment" (2.0 /. 3.0) (f 2.0 8.0);
  Alcotest.check close "second segment" 0.5 (f 12.0 20.0);
  (* [5, 25]: 5 s of the first segment, 10 s of the second, none beyond *)
  Alcotest.check close "time-weighted"
    (((5.0 *. 2.0 /. 3.0) +. (10.0 *. 0.5)) /. 15.0)
    (f 5.0 25.0);
  Alcotest.check close "no length" 0.5 (f 15.0 15.0);
  Alcotest.(check bool) "outside" true (Float.is_nan (f 30.0 30.0));
  Alcotest.(check bool) "one point" true
    (Float.is_nan (Stats.host_factor ~reference:0.002 [ 0.0, 0.002 ] 0.0 1.0))

let test_percentile () =
  let xs = floats [ 7; 1; 9; 3; 5; 2; 8; 4; 6; 10 ] in
  Alcotest.check close "p10 of 10" 1.0 (Stats.percentile 0.1 xs);
  Alcotest.check close "p25 of 10" 3.0 (Stats.percentile 0.25 xs);
  Alcotest.check close "p100" 10.0 (Stats.percentile 1.0 xs);
  Alcotest.check close "p10 of 1" 4.0 (Stats.percentile 0.1 [ 4.0 ])

let tail = Alcotest.(option (triple (float 1e-9) (float 1e-9) int))

let test_tail_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (* 19 samples: the median (rank 10) leaves 9 above, too few *)
  Alcotest.check tail "19 samples" None (Stats.tail (xs 19));
  Alcotest.check tail "20 samples" (Some (0.5, 10.0, 10)) (Stats.tail (xs 20));
  (* 100 samples: p90 is rank 90 with 10 above; p95 would leave 5 *)
  Alcotest.check tail "100 samples" (Some (0.9, 90.0, 10))
    (Stats.tail (xs 100));
  Alcotest.check tail "1000 samples" (Some (0.99, 990.0, 10))
    (Stats.tail (xs 1000));
  Alcotest.check tail "999 samples" (Some (0.95, 950.0, 49))
    (Stats.tail (xs 999));
  Alcotest.check tail "order-free" (Stats.tail (xs 100))
    (Stats.tail (List.rev (xs 100)))

let span ?(dom = 0) name start stop =
  { Spans.sid = Spans.fresh_sid (); parent = 0; name; id = ""; start; stop;
    dom }

let self_of selfs name =
  List.fold_left
    (fun acc ((s : Spans.span), v) -> if s.name = name then acc +. v else acc)
    0.0 selfs

let test_self_times () =
  let spans =
    [ span "root" 0.0 10.0; span "a" 1.0 4.0; span "a.inner" 2.0 3.0;
      span "b" 5.0 9.0; span ~dom:1 "worker" 0.5 2.0 ]
  in
  let selfs = Spans.self_times spans in
  Alcotest.check close "root" 3.0 (self_of selfs "root");
  Alcotest.check close "a" 2.0 (self_of selfs "a");
  Alcotest.check close "a.inner" 1.0 (self_of selfs "a.inner");
  Alcotest.check close "b" 4.0 (self_of selfs "b");
  (* another domain's span never subtracts from this domain's *)
  Alcotest.check close "worker" 1.5 (self_of selfs "worker");
  (* an overhanging child is clipped to its container *)
  let selfs = Spans.self_times [ span "p" 0.0 2.0; span "c" 1.0 2.5 ] in
  Alcotest.check close "clipped parent" 1.0 (self_of selfs "p")

let test_attribution () =
  let spans =
    [ span "glue" 1.0 9.0; span "sim" 2.0 5.0; span "hls" 3.0 4.0;
      span "sim" 6.0 7.0 ]
  in
  let layer_of = function "glue" -> None | l -> Some l in
  let a = Spans.attribute ~layer_of ~wall:10.0 spans in
  Alcotest.(check (list (pair string (float 1e-9))))
    "layers" [ "hls", 1.0; "sim", 3.0 ] a.Spans.layers;
  (* glue self 4 s plus 2 s outside the top-level span *)
  Alcotest.check close "unattributed" 6.0 a.Spans.unattributed;
  Alcotest.check close "reconciles" 10.0
    (Spans.layer_total a +. a.Spans.unattributed)

let test_recorder () =
  Spans.reset ();
  Spans.set_enabled true;
  let v =
    Spans.with_span ~id:"p1" "outer" (fun () ->
        Spans.with_span "inner" (fun () -> 41) + 1)
  in
  (try Spans.with_span "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Spans.set_enabled false;
  Spans.with_span "off" ignore;
  Alcotest.(check int) "value" 42 v;
  let spans = Spans.spans () in
  Alcotest.(check (list string))
    "recorded" [ "outer"; "inner"; "raises" ]
    (List.map (fun (s : Spans.span) -> s.name) spans);
  let outer = List.find (fun (s : Spans.span) -> s.name = "outer") spans in
  let inner = List.find (fun (s : Spans.span) -> s.name = "inner") spans in
  Alcotest.(check int) "parent" outer.sid inner.parent;
  Alcotest.(check string) "id" "p1" outer.id;
  Spans.reset ()

let test_classify () =
  Alcotest.(check (array bool))
    "first use is fresh"
    [| false; false; true; false; true; true |]
    (Stream.classify [| 0; 1; 0; 2; 2; 1 |])

let test_stream () =
  let keys = Stream.generate ~seed:7 ~repeat_share:0.75 2000 in
  Alcotest.(check (array int))
    "seeded" keys
    (Stream.generate ~seed:7 ~repeat_share:0.75 2000);
  let repeats = Stream.classify keys in
  (* fresh keys are numbered in order of first use *)
  let next = ref 0 in
  Array.iteri
    (fun i k ->
      if not repeats.(i) then begin
        Alcotest.(check int) "fresh key order" !next k;
        incr next
      end)
    keys;
  let n_repeats = Array.fold_left (fun n r -> if r then n + 1 else n) 0 repeats in
  Alcotest.(check int) "exactly 75% repeats" 1500 n_repeats;
  Alcotest.(check bool) "first position fresh" false repeats.(0);
  Alcotest.(check bool) "another seed places them elsewhere" true
    (keys <> Stream.generate ~seed:8 ~repeat_share:0.75 2000);
  Alcotest.(check bool) "no repeats at share 0" true
    (Array.for_all not
       (Stream.classify (Stream.generate ~seed:7 ~repeat_share:0.0 100)))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "host factor" `Quick test_host_factor ] );
      ( "spans",
        [ Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "attribution" `Quick test_attribution;
          Alcotest.test_case "recorder" `Quick test_recorder ] );
      ( "stream",
        [ Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "generate" `Quick test_stream ] ) ]
