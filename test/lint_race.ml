(* Forces the first use of [Rtl.Lint.check] from several domains at
   once and exits nonzero if any of them raises. The lint's tables are
   built once per process, so only a fresh process exercises first use:
   the lint-race test in test_rtl.ml runs this repeatedly. *)

let probe : Cayman_hls.Netlist.structure =
  { nl_name = "probe";
    nl_ports = [];
    nl_params = [];
    nl_regs = [];
    nl_wires = [];
    nl_assigns = [];
    nl_instances = [];
    nl_states = [];
    nl_transitions = [];
    nl_entry = "S_IDLE";
    nl_commits = [];
    nl_pipes = [];
    nl_sp = [];
    nl_dma_per_inv = 0;
    nl_region_entry = "entry";
    nl_region_exit = None;
    nl_arch_regs = [] }

let domains = 4

let () =
  let ready = Atomic.make 0 in
  List.init domains (fun _ ->
      Domain.spawn (fun () ->
          (* start line: every domain is up before any lints *)
          Atomic.incr ready;
          while Atomic.get ready < domains do Domain.cpu_relax () done;
          ignore (Rtl.Lint.check probe : Rtl.Lint.finding list)))
  |> List.iter Domain.join
