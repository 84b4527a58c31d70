(** The serve workload's seeded request stream.

    Position [i] of the stream carries the distinct request [key.(i)].
    Fresh requests get keys [0, 1, 2, ...] in order of first use. Exactly
    {!fresh_count} positions are fresh — the first one, and the others
    at seeded places — so every seed asks for the same amount of fresh
    work; every other position repeats the key of a uniformly chosen
    earlier position. *)

(** [fresh_count ~repeat_share n] is [round (n * (1 - repeat_share))],
    at least 1 when [n > 0]. *)
val fresh_count : repeat_share:float -> int -> int

(** [generate ~seed ~repeat_share n] is the keys of the first [n]
    positions; a pure function of its arguments. *)
val generate : seed:int -> repeat_share:float -> int -> int array

(** [classify keys] marks each position [true] when its key occurred at
    an earlier position (a repeat) and [false] when it is the key's
    first use (a fresh request). *)
val classify : int array -> bool array
