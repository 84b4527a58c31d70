(** The staged (closure-compiled) interpreter engine: blocks are
    pre-compiled into flat arrays of instruction closures over typed,
    integer-indexed register banks. An instruction whose operands are
    immediates or registers proven written compiles to one closure that
    reads and writes the banks directly, without allocating. One with an
    operand that may be unwritten keeps the generic closures, whose
    checked readers raise the reference engine's error; so do loads and
    stores in a cache-simulation run, which report every access to the
    cache. Semantics are differentially tested against
    {!Interp_reference} (test/test_interp_diff.ml); programs that fail
    the static cleanliness analysis fall back to the reference engine
    wholesale. Use {!Interp.run} (which dispatches on the selected
    engine) rather than calling this directly. *)

val run :
  ?fuel:int ->
  ?cache_config:Cache.config ->
  ?observer:Interp_common.observer ->
  Cayman_ir.Program.t ->
  Interp_common.result

(** [analyze p] is [Some _] when [p] passes the static cleanliness
    check and will execute on the staged fast path, [None] when [run]
    would fall back to the reference engine. Exposed for tests. *)

type pmeta

val analyze : Cayman_ir.Program.t -> pmeta option
