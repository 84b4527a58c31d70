(** Process-wide settings: the engine's worker count and fuel budget
    here, the interpreter engine in [Cayman_sim.Interp], the store's
    directory and size cap in [Memo.Store]. Each resolves the same way:
    an override installed with {!set} (a CLI flag), else its
    environment variable when it parses, else a built-in default. *)

type 'a setting

val setting :
  env:string -> parse:(string -> 'a option) -> (unit -> 'a) -> 'a setting
(** [setting ~env ~parse default] *)

val get : 'a setting -> 'a
val set : 'a setting -> 'a -> unit
val clear : 'a setting -> unit

val with_set : 'a setting -> 'a -> (unit -> 'b) -> 'b
(** [with_set s v f] runs [f] with the override [v], then restores the
    previous override (or its absence). *)

val positive_int : string -> int option
(** A trimmed integer [>= 1]; anything else is [None]. *)

(** {1 Jobs}

    The worker count used by {!Pool} when none is given explicitly is
    resolved in this order:

    + a process-wide override installed with {!set_jobs} (the CLI's
      [--jobs] flag),
    + the [CAYMAN_JOBS] environment variable,
    + [Domain.recommended_domain_count ()].

    A resolved count of [1] means "run sequentially in the calling
    domain"; no worker domains are ever spawned in that case, so single-
    job runs behave exactly like the pre-engine code. *)

val env_var : string
(** Name of the environment variable consulted by {!jobs}
    (["CAYMAN_JOBS"]). *)

val max_jobs : int
(** Upper bound on any resolved worker count (guards against absurd
    [CAYMAN_JOBS] values spawning hundreds of domains). *)

val set_jobs : int -> unit
(** [set_jobs n] installs a process-wide override, clamped to
    [1..max_jobs]. Used by the CLI's [--jobs] flag. *)

val clear_jobs : unit -> unit
(** Remove the override installed by {!set_jobs}. *)

val jobs : ?jobs:int -> unit -> int
(** [jobs ()] resolves the effective worker count as documented above.
    [jobs ~jobs:n ()] short-circuits resolution with [n] (still
    clamped); non-positive [n] falls through to normal resolution. *)

(** {1 Fuel}

    Interpreter runs throughout the pipeline (profiling, co-simulation,
    fault campaigns) consume fuel — one unit per executed instruction —
    and raise [Cayman_sim.Interp.Out_of_fuel] when it runs out. The
    default budget is resolved here so every entry point shares one
    knob: a {!set_fuel} override (the CLI's [--fuel] flag), then the
    [CAYMAN_FUEL] environment variable, then {!default_fuel}. A finite
    default turns would-be hangs into catchable diagnostics. *)

val fuel_env_var : string
(** Name of the environment variable consulted by {!fuel}
    (["CAYMAN_FUEL"]). *)

val default_fuel : int
(** Fallback fuel budget (2e9 executed instructions — far above any
    legitimate benchmark run, small enough to terminate). *)

val set_fuel : int -> unit
(** [set_fuel n] installs a process-wide override. Non-positive [n] is
    ignored. Used by the CLI's [--fuel] flag. *)

val clear_fuel : unit -> unit
(** Remove the override installed by {!set_fuel}. *)

val fuel : ?fuel:int -> unit -> int
(** [fuel ()] resolves the effective fuel budget as documented above.
    [fuel ~fuel:n ()] short-circuits with [n] when positive. *)
