(* Shared plumbing of the workloads: options, clocks, process facts,
   private memo stores, program counters, the host probe and yardstick,
   timing loops and the result record every workload returns. *)

module Stats = Perfbench_core.Stats
module Spans = Perfbench_core.Spans

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  work : string;  (* scratch directory inside the checkout *)
  cli : string;  (* cayman_cli.exe, for the serve daemon *)
  jobs : int;  (* pinned worker count: 1 *)
}

let now = Unix.gettimeofday

(* One metric of a result: name, value, unit, and an optional detail
   shown in the human-readable report only. *)
type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

let metric ?(note = "") m_name m_unit m_value =
  { m_name; m_value; m_unit; m_note = note }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  lines : string list;  (* extra report lines *)
}

(* Failure bookkeeping shared by a run's checks. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if c.failed <= 20 then prerr_endline ("perfbench: check failed: " ^ what)
  end

(* ---- process facts ---------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> float_of_int kb /. 1024.0
         | None -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

type gc = { minor_words : float; promoted_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections }

let gc_diff a b =
  { minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_collections = b.major_collections - a.major_collections }

(* ---- files and stores -------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let store_counter = ref 0

(* A fresh, empty memo store under the work directory, made ambient;
   the in-process compute-once table is dropped too, so what follows is
   genuinely cold. *)
let fresh_store o =
  incr store_counter;
  let dir = Filename.concat o.work (Printf.sprintf "store-%d" !store_counter) in
  rm_rf dir;
  Memo.Store.reset_memory ();
  Memo.Store.enable ~dir ();
  dir

(* Entries and bytes of the last store dropped, for the memo layer's
   report. *)
let last_store = ref (0, 0)

let drop_store dir =
  (match Memo.Store.ambient () with
   | Some s ->
     let st = Memo.Store.stats_of s in
     last_store := st.Memo.Store.st_entries, st.Memo.Store.st_bytes
   | None -> ());
  Memo.Store.reset_memory ();
  Memo.Store.disable ();
  rm_rf dir

(* ---- program counters -------------------------------------------- *)

(* The program's own counters (Obs.Metrics), read by name. They are
   schedule-independent, so deltas around a pass are exact counts. *)
let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

let counters names = List.map (fun n -> n, counter n) names

let counter_deltas before =
  List.map (fun (n, v) -> n, counter n - v) before

let delta deltas name =
  match List.assoc_opt name deltas with Some v -> v | None -> 0

(* The counters the layer report reads. *)
let tracked =
  [ "sim.profile_instrs"; "analysis.wpst_regions"; "hls.kernel_points";
    "select.regions_visited"; "select.regions_pruned"; "memo.disk_hits";
    "memo.disk_misses"; "fleet.kernels"; "fleet.clusters";
    "rtl.cosim_kernels"; "rtl.cosim_mismatches" ]

(* CPU seconds of this process, every thread, user and system. Under
   paravirtual steal-time accounting the kernel leaves out the time the
   virtual CPU waited for the host, which wall time counts. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of process [pid] so far, summed over its live threads
   (/proc/PID/task/*/schedstat, nanoseconds); nan when it is gone. *)
let task_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> nan
  | tids ->
    Array.fold_left
      (fun acc tid ->
        let path = Filename.concat (Filename.concat dir tid) "schedstat" in
        match open_in path with
        | exception Sys_error _ -> acc
        | ic ->
          let ns = try Scanf.sscanf (input_line ic) "%Ld" Int64.to_float with _ -> nan in
          close_in ic;
          acc +. (ns /. 1e9))
      0.0 tids

(* ---- host speed ---------------------------------------------------- *)

(* A virtual CPU of a shared host runs the same code faster or slower
   for seconds at a time, as other tenants load the physical core and
   its caches, and CPU time follows. The probe measures that speed: a
   fixed interpreter-like loop, an expression tree evaluated by pattern
   matching over integers, in the benchmark's own code. It allocates
   nothing, so the garbage collector never runs inside it and the
   program's heap cannot change its time, and it calls nothing in the
   program under test. *)
type pexpr =
  | Num of int
  | Var of int
  | Add of pexpr * pexpr
  | Mul of pexpr * pexpr
  | If of pexpr * pexpr * pexpr
  | Let of int * pexpr * pexpr

let probe_depth = 9

let probe_tree =
  let st = Random.State.make [| 0x9e0be |] in
  let rec gen d =
    if d = 0 then
      if Random.State.bool st then Num (Random.State.int st 100)
      else Var (Random.State.int st 8)
    else
      match Random.State.int st 5 with
      | 0 -> Add (gen (d - 1), gen (d - 1))
      | 1 -> Mul (gen (d - 1), Num 3)
      | 2 -> If (gen (d - 1), gen (d - 1), gen (d - 1))
      | 3 -> Let (Random.State.int st 8, gen (d - 1), gen (d - 1))
      | _ -> Add (Var (Random.State.int st 8), gen (d - 1))
  in
  gen probe_depth

(* The environment: one frame of 8 slots per [Let] depth. *)
let probe_env = Array.make (8 * (probe_depth + 2)) 0

let rec probe_eval d e =
  match e with
  | Num n -> n
  | Var i -> probe_env.((8 * d) + i)
  | Add (a, b) -> probe_eval d a + probe_eval d b
  | Mul (a, b) -> probe_eval d a * probe_eval d b
  | If (c, a, b) ->
    if probe_eval d c land 1 = 0 then probe_eval d a else probe_eval d b
  | Let (i, a, b) ->
    let v = probe_eval d a in
    for k = 0 to 7 do
      probe_env.((8 * (d + 1)) + k) <- probe_env.((8 * d) + k)
    done;
    probe_env.((8 * (d + 1)) + i) <- v;
    probe_eval (d + 1) b

let probe_evals = 3000

let probe_once () =
  let t0 = cpu_now () in
  let acc = ref 0 in
  for k = 1 to probe_evals do
    for i = 0 to 7 do
      probe_env.(i) <- (i * k) land 63
    done;
    acc := !acc + probe_eval 0 probe_tree
  done;
  ignore (Sys.opaque_identity !acc);
  cpu_now () -. t0

(* CPU seconds of one probe on the host state the figures are scaled
   to. A CPU time [t] measured while a probe took [p] is reported as
   [t *. probe_ref /. p], in host-normalised seconds. *)
let probe_ref = 0.0025

(* The probe points of a measured run, newest first: when each was
   taken and the median CPU time of its 3 probes. Probing is on only
   inside [repeat_for], which runs one worker domain. *)
let probe_points : (float * float) list ref = ref []
let probing = ref false

(* Wall and CPU time spent in probes, left out of every timed unit. *)
let probe_wall = ref 0.0
let probe_cpu = ref 0.0

let work_wall () = now () -. !probe_wall
let work_cpu () = cpu_now () -. !probe_cpu

let probe_point () =
  let t0 = now () and c0 = cpu_now () in
  let p = Stats.median (List.init 3 (fun _ -> probe_once ())) in
  let t1 = now () in
  probe_points := (t1, p) :: !probe_points;
  probe_wall := !probe_wall +. (t1 -. t0);
  probe_cpu := !probe_cpu +. (cpu_now () -. c0)

(* Least wall time between probe points. *)
let tick_s = 0.25

(* A place between units of work where the host may be probed: when
   probing is on and [tick_s] has passed since the last probe. *)
let tick () =
  if !probing then
    match !probe_points with
    | (t, _) :: _ when now () -. t < tick_s -> ()
    | _ -> probe_point ()

(* The host factor over the wall interval [s, e] (Stats.host_factor):
   multiply a CPU time measured in the interval by it to get
   host-normalised seconds. Valid once probing has stopped, which takes
   a last probe. *)
let host_factor s e = Stats.host_factor ~reference:probe_ref !probe_points s e

(* The seed of the inputs of cycle [k] of a run with seed [seed]. The
   fleet and serve workloads draw new inputs for every cycle from it,
   so that a run's median covers many draws of the same kind of input
   rather than one. *)
let cycle_seed seed k = Hashtbl.hash (seed, k)

(* One timed pass: its wall interval, its wall and CPU time with probes
   left out, and the tracked counters' deltas. *)
type pass = {
  start : float;
  stop : float;
  wall : float;
  cpu : float;
  counts : (string * int) list;
}

let timed_pass f =
  tick ();
  let before = counters tracked in
  let t0 = now () and w0 = work_wall () and c0 = work_cpu () in
  let v = f () in
  let p =
    { start = t0;
      stop = now ();
      wall = work_wall () -. w0;
      cpu = work_cpu () -. c0;
      counts = counter_deltas before }
  in
  tick ();
  v, p

(* The host-normalised CPU seconds of a pass. *)
let norm p = p.cpu *. host_factor p.start p.stop

(* ---- timing loops ------------------------------------------------ *)

(* CPU time of [f ()], discarding its value. *)
let cpu_it f =
  let c0 = work_cpu () in
  ignore (f ());
  work_cpu () -. c0

(* A run of repeated cycles: the cycles, the host-normalised CPU time of
   one set-up, every set-up's host-normalised CPU time, and the benchmark
   process's peak RSS in MB. The passes of the cycles are normalised
   with [norm]. *)
type 'a repeated = {
  cycles : 'a list;
  setup_s : float;
  setups : float list;
  rss_mb : float;
}

(* Cycles after which the peak RSS is read, so that it covers the same
   work whatever the host's speed (or after the last cycle, if fewer
   ran). *)
let rss_cycles = 3

(* Repeat [cycle] until [seconds] have passed, at least once, with the
   host probed at the start, between units of work ([tick]) and at the
   end. Before each cycle one batch of [setup_batch] set-ups is timed
   as a whole ([setup] returns the CPU seconds one set-up took), so the
   set-up samples are spread over the whole run like the cycles. The
   set-up time is the median normalised batch divided by
   [setup_batch]. The caller makes one untimed set-up first, which also
   pays the process's first-touch costs. *)
let repeat_for ~seconds ~setup ~setup_batch cycle =
  probe_points := [];
  probing := true;
  probe_point ();
  let t0 = now () in
  let rss_mb = ref nan in
  let singles = ref [] in
  let rec go n acc batches =
    tick ();
    let s = now () in
    let batch = ref 0.0 in
    for _ = 1 to setup_batch do
      let s1 = now () in
      let c = setup () in
      singles := (s1, now (), c) :: !singles;
      batch := !batch +. c
    done;
    let batches = (s, now (), !batch) :: batches in
    let acc = cycle () :: acc in
    if n = rss_cycles then rss_mb := peak_rss_mb None;
    if now () -. t0 >= seconds then List.rev acc, batches
    else go (n + 1) acc batches
  in
  let cycles, batches =
    Fun.protect ~finally:(fun () -> probe_point (); probing := false)
      (fun () -> go 1 [] [])
  in
  if Float.is_nan !rss_mb then rss_mb := peak_rss_mb None;
  let normalised = List.map (fun (s, e, c) -> c *. host_factor s e) in
  { cycles;
    setup_s = Stats.median (normalised batches) /. float_of_int setup_batch;
    setups = normalised !singles;
    rss_mb = !rss_mb }

(* The probes of the last measured run, for the report: how many, and
   the median probe CPU time. *)
let probe_summary () =
  List.length !probe_points, Stats.median (List.map snd !probe_points)

let with_jobs n f =
  let prev = Engine.Config.jobs () in
  Engine.Config.set_jobs n;
  Fun.protect ~finally:(fun () -> Engine.Config.set_jobs prev) f

(* ---- host yardstick ----------------------------------------------- *)

(* A frozen program run on the frozen reference interpreter: its speed
   tracks the host, not the code under test, so drift between runs of
   the benchmark shows up here. Reported beside every result, never
   gated. *)
let yardstick_src =
  {|
const int N = 2048;
float A[N]; float B[N];

int main() {
  for (int i = 0; i < N; i++) { A[i] = (float)(i % 13) / 4.0; }
  float s = 0.0;
  for (int r = 0; r < 16; r++) {
    for (int i = 1; i < N - 1; i++) {
      B[i] = (A[i - 1] + A[i] + A[i + 1]) * 0.25;
      if (B[i] > 1.5) { s += B[i]; } else { s -= 0.5; }
    }
    for (int i = 1; i < N - 1; i++) { A[i] = B[i]; }
  }
  return (int)s;
}
|}

let yardstick () =
  let program = Cayman_frontend.Lower.compile yardstick_src in
  let t0 = now () in
  let r = Cayman_sim.Interp_reference.run program in
  let dt = now () -. t0 in
  let instrs = Cayman_sim.Profile.total_instrs r.Cayman_sim.Interp_common.profile in
  float_of_int instrs /. dt /. 1e6, instrs, dt

(* ---- program-side spans ------------------------------------------- *)

(* Import the program's own Obs.Trace spans recorded while [f] ran, for
   layers the benchmark cannot wrap from outside (calls made inside
   Fleet.Merge.run and Rtl.Cosim.run_many). They nest under the
   benchmark's spans by their intervals. Obs.Trace times are relative
   to an epoch it takes when enabled; reading our clock just after
   places imported spans a few microseconds late, never early, so they
   cannot start before the benchmark span that encloses them. Returns
   [f]'s value and the number of spans the program's ring buffers
   dropped. *)
let with_program_spans f =
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  let epoch = now () in
  let v =
    Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false) f
  in
  List.iter
    (fun (s : Obs.Trace.span) ->
      Spans.add
        { Spans.sid = Spans.fresh_sid ();
          parent = 0;
          name = s.Obs.Trace.sp_name;
          id = "";
          start = epoch +. s.Obs.Trace.sp_start;
          stop = epoch +. s.Obs.Trace.sp_start +. s.Obs.Trace.sp_dur;
          dom = s.Obs.Trace.sp_dom })
    (Obs.Trace.spans ());
  let dropped = Obs.Trace.dropped () in
  Obs.Trace.reset ();
  v, dropped
