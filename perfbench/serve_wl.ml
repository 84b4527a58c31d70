(* Workload [serve]: the `cayman serve` daemon as a child process on a
   private socket and a fresh store, driven as a closed loop from two
   connections with one outstanding request each. The stream mixes
   first-time requests (suite benchmarks and generated sources) with a
   seeded share of repeats; a warm phase then replays, in the same
   closed loop, requests the daemon has already answered.

   A run repeats cycles of the same shape, each with a stream of its own
   drawn from the run's seed: start a daemon, send the first
   [stream_len] requests of the stream, replay [replay_len] answered
   ones, stop the daemon. *)

open Common
module P = Serve.Protocol

(* The traffic mix is assumed, not measured: the repository records no
   trace of real clients (perfbench/README.md). Two connections, one per
   CPU of a 2-CPU host; three of four requests repeat an earlier one,
   so the reply cache carries most of the stream while every cycle still
   sends 60 fresh requests; the stream and the replay are sized so one
   cycle takes one to two seconds on a 2-CPU host, which gives a run
   enough cycles for a steady median. *)
let connections = 2
let repeat_share = 0.75
let stream_len = 240
let replay_len = 1500

(* The first fresh requests of every stream, in seeded order: the six
   suite benchmarks that answer fastest, under two selection modes, so
   the stream has suite programs in it without their interpreter runs
   taking over the cycle. Assumed, like the mix above. *)
let suite_requests =
  List.concat_map
    (fun b -> [ b, "full"; b, "novia" ])
    [ "atax"; "bicg"; "mvt"; "spmv"; "fft"; "cholesky" ]

(* The request behind fresh key [k]: one of [suite_requests] for the
   first keys, a generated MiniC program after that. *)
let request_of_key ~seed order k =
  let n = Array.length order in
  if k < n then
    let bench, mode = order.(k) in
    P.request ~bench ~mode ~id:0 "run"
  else
    P.request
      ~source:(Fleet.Genprog.minic_source ~seed ~index:(k - n))
      ~mode:"full" ~id:0 "run"

(* The reply the in-process handlers give for the same request: the
   daemon's reply must be byte-identical to it. *)
let expected (r : P.request) =
  match Serve.Handlers.load ?bench:r.P.rq_bench ?source:r.P.rq_source () with
  | Error m -> Error m
  | Ok p ->
    (try
       Serve.Handlers.run_text ?fuel:r.P.rq_fuel ~budget:r.P.rq_budget
         ~mode:r.P.rq_mode ~alpha:r.P.rq_alpha p
     with e -> Error (Printexc.to_string e))

type daemon = { pid : int; sock : string; store : string }

let counter_spawn = ref 0

let spawn o =
  incr counter_spawn;
  let sock = Filename.concat o.work (Printf.sprintf "d%d.sock" !counter_spawn) in
  let store = Filename.concat o.work (Printf.sprintf "dstore-%d" !counter_spawn) in
  let log =
    Unix.openfile
      (Filename.concat o.work (Printf.sprintf "daemon-%d.log" !counter_spawn))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process o.cli
      [| o.cli; "serve"; "--socket"; sock; "--cache-dir"; store; "--jobs";
         string_of_int o.jobs |]
      null null log
  in
  Unix.close null;
  Unix.close log;
  let deadline = now () +. 20.0 in
  let rec wait_up () =
    match Serve.Client.connect sock with
    | cl ->
      let r = Serve.Client.rpc cl "health" in
      Serve.Client.close cl;
      if not r.P.rp_ok then failwith "serve: daemon health check failed"
    | exception Unix.Unix_error _ ->
      if now () > deadline then failwith "serve: daemon did not come up";
      Unix.sleepf 0.0002;
      wait_up ()
  in
  wait_up ();
  { pid; sock; store }

let stop d =
  (try
     let cl = Serve.Client.connect d.sock in
     Serve.Client.shutdown cl;
     Serve.Client.close cl
   with _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  rm_rf d.store;
  (try Sys.remove d.sock with Sys_error _ -> ())

type sample = {
  key : int;
  repeat : bool;
  latency : float;
  ok : bool;
  digest : string;  (* of the reply text *)
}

(* Closed loop: each connection sends its next request as soon as the
   previous reply is in, until [count] requests have been sent. Position
   [i] goes to whichever connection asks next. *)
let closed_loop d ~count ~traced ~next =
  let pos = Atomic.make 0 in
  let results = Array.make connections [] in
  let lane k () =
    let cl = Serve.Client.connect d.sock in
    let acc = ref [] in
    let rec go () =
      let i = Atomic.fetch_and_add pos 1 in
      if i < count then begin
        let key, repeat, req = next i in
        let req = { req with P.rq_id = Serve.Client.fresh_id cl } in
        let t0 = now () in
        let rep = Serve.Client.request cl req in
        let t1 = now () in
        if traced then
          Spans.add
            { Spans.sid = Spans.fresh_sid (); parent = 0; name = "serve";
              id = string_of_int key; start = t0; stop = t1; dom = k };
        acc :=
          { key; repeat; latency = t1 -. t0; ok = rep.P.rp_ok;
            digest = Digest.string rep.P.rp_output }
          :: !acc;
        go ()
      end
    in
    go ();
    Serve.Client.close cl;
    results.(k) <- !acc
  in
  let t0 = now () in
  let threads = List.init connections (fun k -> Thread.create (lane k) ()) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  List.concat (Array.to_list results), wall

(* The mixed stream: keys from the seeded generator, classified into
   fresh and repeat by position. *)
let mixed_stream seed =
  let keys = Perfbench_core.Stream.generate ~seed ~repeat_share stream_len in
  let repeats = Perfbench_core.Stream.classify keys in
  let rng = Random.State.make [| seed; 0x5e2e |] in
  let order =
    Array.of_list
      (List.map snd
         (List.sort compare
            (List.map (fun r -> Random.State.bits rng, r) suite_requests)))
  in
  let distinct = 1 + Array.fold_left max 0 keys in
  let requests = Array.init distinct (request_of_key ~seed order) in
  let next i = keys.(i), repeats.(i), requests.(keys.(i)) in
  next, (fun k -> requests.(k)), distinct

(* Replay of the stream's requests, all answered already: every request
   is a repeat. *)
let replay_stream seed distinct request =
  let rng = Random.State.make [| seed; 0x3e9 |] in
  let order = Array.init replay_len (fun _ -> Random.State.int rng distinct) in
  fun i -> order.(i), true, request order.(i)

(* Every reply must equal the in-process handler text for its request;
   each distinct request is rendered in-process once. *)
let check_replies c request =
  let want = Hashtbl.create 256 in
  fun s ->
    let w =
      match Hashtbl.find_opt want s.key with
      | Some w -> w
      | None ->
        let w =
          match expected (request s.key) with
          | Ok text -> Some (Digest.string text)
          | Error _ -> None
        in
        Hashtbl.replace want s.key w;
        w
    in
    check c
      (s.ok && w = Some s.digest)
      (Printf.sprintf
         "serve: reply for request %d differs from the in-process handlers"
         s.key)

let telemetry d =
  let cl = Serve.Client.connect d.sock in
  let r = Serve.Client.telemetry cl in
  Serve.Client.close cl;
  match Obs.Expose.parse r.P.rp_output with
  | Ok fams ->
    fun name ->
      Option.value ~default:0.0
        (Option.bind (Obs.Expose.find fams name) (fun f ->
             Option.map Obs.Expose.to_float (Obs.Expose.sample_value f "")))
  | Error _ -> fun _ -> nan

(* Polls the daemon's queue depth at about 20 Hz while [f] runs. *)
let with_queue_poll d f =
  let stop = Atomic.make false in
  let peak = ref 0.0 in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (try peak := Float.max !peak (telemetry d "cayman_serve_queue_depth")
           with _ -> ());
          Unix.sleepf 0.05
        done)
      ()
  in
  let v =
    Fun.protect ~finally:(fun () -> Atomic.set stop true; Thread.join poller) f
  in
  v, !peak

type cycle = { mixed : sample list; mixed_pass : pass; warm : sample list; warm_pass : pass; rss : float }

(* [closed_loop] as a timed pass whose CPU time is the daemon's and this
   process's together. *)
let phase d ~count ~next =
  tick ();
  let t0 = now () and w0 = work_wall () in
  let d0 = task_cpu d.pid and c0 = work_cpu () in
  let samples, _ = closed_loop d ~count ~traced:false ~next in
  let p =
    { start = t0;
      stop = now ();
      wall = work_wall () -. w0;
      cpu = task_cpu d.pid -. d0 +. (work_cpu () -. c0);
      counts = [] }
  in
  tick ();
  samples, p

let cycle o check_sample ~next ~replay =
  let d = spawn o in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let mixed, mixed_pass = phase d ~count:stream_len ~next in
  let warm, warm_pass = phase d ~count:replay_len ~next:replay in
  let rss = peak_rss_mb (Some d.pid) in
  List.iter check_sample mixed;
  List.iter check_sample warm;
  { mixed; mixed_pass; warm; warm_pass; rss }

(* Set-up: start a daemon until it answers; the CPU seconds the daemon
   spent up to its answer (it is then stopped, untimed). *)
let setup o () =
  let d = spawn o in
  let cpu = task_cpu d.pid in
  stop d;
  cpu

(* Daemon starts before each cycle. One start costs 2.5 to 7 ms of CPU
   time, most of it in the kernel (exec, page faults), and its median
   drifts by a third over tens of seconds with the host, so the set-up
   figure is the 10th percentile of the run's starts: over three 20 s
   runs of about 100 starts each it read 2.98, 2.80 and 2.86 ms where
   the medians read 4.71, 3.51 and 3.38 ms. *)
let setup_batch = 10

let ms xs = List.map (fun s -> 1e3 *. s.latency) xs

(* The requests of cycle [k]: the mixed stream, the request of each
   key, the number of distinct keys and the replay. *)
let inputs o k =
  let seed = cycle_seed o.seed k in
  let next, request, distinct = mixed_stream seed in
  next, request, distinct, replay_stream seed distinct request

let run o =
  let c = checks () in
  if not o.trace then begin
    ignore (setup o ());
    let k = ref 0 in
    let { cycles; setups; _ } =
      repeat_for ~seconds:o.seconds ~setup:(setup o) ~setup_batch (fun () ->
          let next, request, _, replay = inputs o !k in
          incr k;
          cycle o (check_replies c request) ~next ~replay)
    in
    let med f = Stats.median (List.map f cycles) in
    let all f = List.concat_map f cycles in
    let repeats = all (fun cy -> List.filter (fun s -> s.repeat) cy.mixed) in
    let fresh = all (fun cy -> List.filter (fun s -> not s.repeat) cy.mixed) in
    { attempted = c.attempted;
      failed = c.failed;
      metrics =
        [ metric "setup_s" "s" (Stats.percentile 0.1 setups)
            ~note:(Printf.sprintf
                     "daemon CPU until it answers, p10 of %d starts"
                     (List.length setups));
          metric "cpu_throughput_per_s" "1/s"
            (med (fun cy -> float_of_int stream_len /. norm cy.mixed_pass))
            ~note:(Printf.sprintf "completed requests/s, %d-request stream"
                     stream_len);
          metric "warm_cpu_throughput_per_s" "1/s"
            (med (fun cy -> float_of_int replay_len /. norm cy.warm_pass))
            ~note:(Printf.sprintf "replayed requests/s (reply cache), %d-request replay"
                     replay_len);
          metric "peak_rss_mb" "MB" (med (fun cy -> cy.rss))
            ~note:"daemon process, median over daemons" ];
      lines =
        Printf.sprintf "serve: %d cycles, each a stream of its own: %d requests + %d replays"
          (List.length cycles) stream_len replay_len
        :: Report.wall_lines ~what:"stream" ~n:stream_len
             (List.map (fun cy -> cy.mixed_pass) cycles)
        @ Report.wall_lines ~what:"replay" ~n:replay_len
            (List.map (fun cy -> cy.warm_pass) cycles)
        @ Report.latency_lines "all requests" (ms (all (fun cy -> cy.mixed)))
        @ Report.latency_lines "repeat requests" (ms repeats)
        @ Report.latency_lines "fresh requests" (ms fresh)
        @ Report.latency_lines "warm replay" (ms (all (fun cy -> cy.warm))) }
  end
  else begin
    (* one cycle for the per-request figures and the daemon's counters,
       then untraced and traced replays of the same answered requests,
       whose throughput ratio is the tracing overhead *)
    let next, request, _, replay = inputs o 0 in
    let check_sample = check_replies c request in
    let d = spawn o in
    Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
    let (un, _), depth =
      with_queue_poll d (fun () ->
          closed_loop d ~count:stream_len ~traced:false ~next)
    in
    let base, base_wall =
      closed_loop d ~count:replay_len ~traced:false ~next:replay
    in
    Spans.reset ();
    let tr, tr_wall = closed_loop d ~count:replay_len ~traced:true ~next:replay in
    let spans = Spans.spans () in
    Spans.reset ();
    let t = telemetry d in
    List.iter check_sample (un @ base @ tr);
    let a =
      Spans.attribute ~layer_of:Layers.layer_of
        ~wall:(float_of_int connections *. tr_wall) spans
    in
    let repeats = List.filter (fun s -> s.repeat) un in
    let fresh = List.filter (fun s -> not s.repeat) un in
    let rate xs w = float_of_int (List.length xs) /. w in
    let repeat_tail = Stats.tail (ms repeats) in
    let yard, _, _ = yardstick () in
    let metrics =
      [ "serve.cache_hits", t "cayman_serve_cache_hits_total";
        "serve.cache_misses", t "cayman_serve_cache_misses_total";
        ( "serve.repeat_share",
          float_of_int (List.length repeats) /. float_of_int (List.length un) );
        "serve.queue_depth_max", depth;
        "serve.shed", t "cayman_serve_shed_total";
        "serve.write_buf_hwm", t "cayman_serve_write_buf_hwm";
        "serve.repeat_p50_ms", Stats.median (ms repeats);
        ( "serve.repeat_tail_ms",
          match repeat_tail with Some (_, v, _) -> v | None -> nan );
        "serve.fresh_p50_ms", Stats.median (ms fresh);
        "sim.instrs", t "cayman_sim_profile_instrs_total";
        "analysis.regions", t "cayman_analysis_wpst_regions_total";
        "hls.points", t "cayman_hls_kernel_points_total";
        "core.select.visited", t "cayman_select_regions_visited_total";
        "core.select.pruned", t "cayman_select_regions_pruned_total";
        "memo.hits", t "cayman_memo_disk_hits_total";
        "memo.misses", t "cayman_memo_disk_misses_total";
        "engine.jobs", float_of_int o.jobs;
        ( "obs.trace_overhead_pct",
          100.0 *. ((rate base base_wall /. rate tr tr_wall) -. 1.0) );
        "obs.traced_wall_s", a.Spans.wall;
        "unattributed_s", a.Spans.unattributed;
        "host.yardstick_minstr_per_s", yard ]
    in
    { attempted = c.attempted;
      failed = c.failed;
      metrics = List.map (fun (n, v) -> metric n "" v) metrics;
      lines =
        [ Printf.sprintf "serve traced: repeat tail %s"
            (match repeat_tail with
             | Some (p, v, n) ->
               Printf.sprintf "p%g %.3f ms, %d beyond" (100.0 *. p) v n
             | None -> "none (fewer than 20 repeats)");
          Printf.sprintf
            "serve traced: %.3f connection-s = client wait %.3f s + \
             unattributed %.3f s"
            a.Spans.wall (Spans.layer_total a) a.Spans.unattributed ] }
  end
