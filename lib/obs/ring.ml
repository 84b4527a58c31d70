(* See ring.mli for the scheme. *)

type 'a local = {
  dom : int;
  slots : 'a option array;
  mutable written : int;  (* total ever pushed; slot = written mod capacity *)
}

type 'a t = {
  id : 'a -> int;
  key : 'a local Domain.DLS.key;
  registry : 'a local list ref;
  registry_mutex : Mutex.t;
  next_id : int Atomic.t;
  epoch : float Atomic.t;
}

let create ~capacity ~id =
  let registry = ref [] and registry_mutex = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let l =
          { dom = (Domain.self () :> int);
            slots = Array.make capacity None;
            written = 0 }
        in
        Mutex.protect registry_mutex (fun () -> registry := l :: !registry);
        l)
  in
  { id;
    key;
    registry;
    registry_mutex;
    next_id = Atomic.make 1;
    epoch = Atomic.make (Unix.gettimeofday ()) }

let local t = Domain.DLS.get t.key
let dom l = l.dom
let fresh_id t = Atomic.fetch_and_add t.next_id 1
let epoch t = Atomic.get t.epoch
let restart_epoch t = Atomic.set t.epoch (Unix.gettimeofday ())

let push l x =
  l.slots.(l.written mod Array.length l.slots) <- Some x;
  l.written <- l.written + 1

let locals t = Mutex.protect t.registry_mutex (fun () -> !(t.registry))

let snapshot t =
  let all =
    List.concat_map
      (fun l ->
        let acc = ref [] in
        for i = 0 to min l.written (Array.length l.slots) - 1 do
          match l.slots.(i) with Some x -> acc := x :: !acc | None -> ()
        done;
        !acc)
      (locals t)
  in
  List.sort (fun a b -> compare (t.id a) (t.id b)) all

let dropped t =
  List.fold_left
    (fun acc l -> acc + max 0 (l.written - Array.length l.slots))
    0 (locals t)

let reset t =
  List.iter
    (fun l ->
      Array.fill l.slots 0 (Array.length l.slots) None;
      l.written <- 0)
    (locals t);
  Atomic.set t.next_id 1;
  restart_epoch t
