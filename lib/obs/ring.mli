(** Per-domain bounded rings merged by one global id — the recording
    scheme behind {!Trace} and {!Log}.

    Each domain pushes into its own ring of [capacity] slots, reached
    through [Domain.DLS]: no lock on the recording path beyond one
    registry insertion per domain. Ids from {!fresh_id} are globally
    monotone, so {!snapshot} merges every ring into one id-sorted
    sequence. A full ring overwrites its oldest element; {!dropped}
    counts the overwrites. *)

type 'a t

(** One domain's ring of a ['a t]. *)
type 'a local

(** Elements carry the id [id x], taken from {!fresh_id}. *)
val create : capacity:int -> id:('a -> int) -> 'a t

(** The calling domain's ring, created and registered on first use. *)
val local : 'a t -> 'a local

val dom : 'a local -> int
val fresh_id : 'a t -> int

(** Wall-clock time the elements' timestamps are relative to;
    {!restart_epoch} moves it to now. *)
val epoch : 'a t -> float

val restart_epoch : 'a t -> unit

(** Only the owning domain may push. *)
val push : 'a local -> 'a -> unit

(** Every retained element, sorted by id. The caller owns quiescence:
    concurrent pushes may or may not be included. *)
val snapshot : 'a t -> 'a list

val dropped : 'a t -> int

(** Empty every ring and restart the ids and the epoch. *)
val reset : 'a t -> unit
