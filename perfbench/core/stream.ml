(* The serve workload's request stream: which distinct request each
   position of the stream carries. *)

let fresh_count ~repeat_share n =
  if n = 0 then 0
  else max 1 (int_of_float (Float.round (float_of_int n *. (1.0 -. repeat_share))))

let generate ~seed ~repeat_share n =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  (* which positions are fresh: exactly [fresh_count] of them, the first
     position always, the rest in seeded places *)
  let fresh_at = Array.init n (fun i -> i < fresh_count ~repeat_share n) in
  for i = n - 1 downto 2 do
    let j = 1 + Random.State.int rng i in
    let t = fresh_at.(i) in
    fresh_at.(i) <- fresh_at.(j);
    fresh_at.(j) <- t
  done;
  let keys = Array.make n 0 in
  let fresh = ref 0 in
  for i = 0 to n - 1 do
    if fresh_at.(i) then begin
      keys.(i) <- !fresh;
      incr fresh
    end
    else keys.(i) <- keys.(Random.State.int rng i)
  done;
  keys

let classify keys =
  let seen = Hashtbl.create 64 in
  Array.map
    (fun k ->
      let repeat = Hashtbl.mem seen k in
      Hashtbl.replace seen k ();
      repeat)
    keys
