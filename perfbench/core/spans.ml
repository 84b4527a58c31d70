(* In-memory span recorder for the traced run, and the self-time
   arithmetic that turns spans into per-layer busy time. *)

type span = {
  sid : int;
  parent : int;
  name : string;
  id : string;
  start : float;
  stop : float;
  dom : int;
}

let enabled = Atomic.make false
let next_sid = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []
let stack_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let set_enabled on = Atomic.set enabled on
let fresh_sid () = Atomic.fetch_and_add next_sid 1

let add sp =
  Mutex.lock lock;
  recorded := sp :: !recorded;
  Mutex.unlock lock

let reset () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock

let spans () =
  Mutex.lock lock;
  let all = !recorded in
  Mutex.unlock lock;
  List.sort (fun a b -> compare (a.start, a.sid) (b.start, b.sid)) all

let with_span ?(id = "") name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let sid = fresh_sid () in
    let parent = match !stack with [] -> 0 | p :: _ -> p in
    stack := sid :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      stack := List.filter (fun s -> s <> sid) !stack;
      add { sid; parent; name; id; start; stop; dom = (Domain.self () :> int) }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

(* Self time of every span: its duration minus the part of it that the
   spans directly inside it cover. Nesting is read from the intervals on
   each domain rather than from [parent], so spans imported from another
   recorder nest under the spans that contain them. A child that
   overhangs its container (clock skew between recorders) is clipped to
   it. *)
let sweep spans =
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_dom s.dom
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_dom s.dom)))
    spans;
  Hashtbl.fold
    (fun _ dom_spans acc ->
      let ordered =
        List.sort
          (fun a b ->
            match compare a.start b.start with
            | 0 -> compare b.stop a.stop
            | c -> c)
          dom_spans
      in
      let stack = ref [] in
      let out = ref [] in
      List.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | (top, _) :: rest when top.stop <= s.start ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          let top_level =
            match !stack with
            | (top, self) :: _ ->
              let covered = Float.min s.stop top.stop -. s.start in
              self := !self -. Float.max 0.0 covered;
              false
            | [] -> true
          in
          let self = ref (s.stop -. s.start) in
          stack := (s, self) :: !stack;
          out := (s, self, top_level) :: !out)
        ordered;
      List.rev_append
        (List.map (fun (s, self, top) -> s, !self, top) !out)
        acc)
    by_dom []

let self_times spans = List.map (fun (s, self, _) -> s, self) (sweep spans)

(* Self time summed per layer. [layer_of] maps a span name to its layer;
   spans it maps to [None] are glue, which [attribute] reports as
   unattributed. *)
let by_layer ~layer_of spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match layer_of s.name with
      | None -> ()
      | Some layer ->
        Hashtbl.replace tbl layer
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl layer)))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

type attribution = {
  layers : (string * float) list;
  unattributed : float;  (** glue self time plus time outside any span *)
  wall : float;
}

(* Attribute [wall] seconds of single-domain traced work to layers.
   [unattributed] is computed from the glue spans and the gaps between
   top-level spans, independently of the layer sums, so
   [layers + unattributed = wall] is a check, not a definition. *)
let attribute ~layer_of ~wall spans =
  let swept = sweep spans in
  let layers = by_layer ~layer_of spans in
  let glue, top_level =
    List.fold_left
      (fun (glue, top_level) (s, self, top) ->
        ( (match layer_of s.name with None -> glue +. self | Some _ -> glue),
          if top then top_level +. (s.stop -. s.start) else top_level ))
      (0.0, 0.0) swept
  in
  { layers; unattributed = glue +. (wall -. top_level); wall }

let layer_total a = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 a.layers
