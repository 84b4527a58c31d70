(** Span recorder for the benchmark's traced run, and self-time
    arithmetic.

    Spans are recorded from the benchmark's own code around calls into
    the program's public functions. Recording is domain-safe (the
    selection plug-in runs on pool workers): each domain keeps its own
    stack of open spans, and completed spans go into one mutex-guarded
    in-memory list that is read once the traced work has ended. *)

type span = {
  sid : int;  (** unique id *)
  parent : int;  (** enclosing span on the same domain; [0] = none *)
  name : string;  (** what was called; mapped to a layer by the caller *)
  id : string;  (** program or request the span belongs to *)
  start : float;  (** [Unix.gettimeofday] seconds *)
  stop : float;
  dom : int;  (** recording domain *)
}

val set_enabled : bool -> unit

(** [with_span ~id name f] runs [f], recording a span around it when
    recording is enabled; otherwise it is just [f ()]. *)
val with_span : ?id:string -> string -> (unit -> 'a) -> 'a

(** A fresh span id, for spans imported from another recorder. *)
val fresh_sid : unit -> int

(** Record a span built elsewhere. *)
val add : span -> unit

(** Every recorded span, ordered by start time. *)
val spans : unit -> span list

(** Forget every recorded span. *)
val reset : unit -> unit

(** Each span with its self time: its duration minus the part covered
    by the spans directly inside it on the same domain. Nesting is read
    from the intervals, so imported spans nest too; a child overhanging
    its container is clipped to it. *)
val self_times : span list -> (span * float) list

type attribution = {
  layers : (string * float) list;  (** self seconds per layer *)
  unattributed : float;
      (** glue spans' self time plus the part of [wall] outside every
          top-level span *)
  wall : float;
}

(** Attribute [wall] seconds of single-domain traced work. The
    unattributed share is computed from the glue spans and the
    top-level spans, independently of the layer sums, so
    [layer_total + unattributed = wall] checks the arithmetic. *)
val attribute :
  layer_of:(string -> string option) -> wall:float -> span list -> attribution

val layer_total : attribution -> float
