module Ir = Cayman_ir
module An = Cayman_analysis

(* Bump on any change to cached-value semantics, key derivation, or the
   on-disk codec: old store entries become misses, never wrong hits. *)
let version = "cayman-memo-1"

(* --- key builder --- *)

(* Every field is self-delimiting (tag + decimal length or fixed-width
   payload), so distinct field sequences produce distinct byte strings
   and the only collision source left is MD5 itself. *)
type b = Buffer.t

let builder ~ns =
  let b = Buffer.create 256 in
  Buffer.add_string b version;
  Buffer.add_char b '/';
  Buffer.add_string b ns;
  Buffer.add_char b '\n';
  b

let str b s =
  Buffer.add_char b 's';
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let int b n =
  Buffer.add_char b 'i';
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let bool b v = Buffer.add_string b (if v then "b1" else "b0")

let float b x =
  Buffer.add_char b 'f';
  Buffer.add_string b (Printf.sprintf "%Lx" (Int64.bits_of_float x));
  Buffer.add_char b ';'

let int_opt b = function
  | None -> Buffer.add_string b "n;"
  | Some n -> int b n

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

(* --- region canonicalization --- *)

type canon = {
  canon_code : string;
  exact_code : string;
  block_order : string list;
  canon_of_label : string -> string;
  canon_of_reg : string -> string;
}

let intern tbl prefix name =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
    let c = Printf.sprintf "%s%d" prefix (Hashtbl.length tbl) in
    Hashtbl.add tbl name c;
    c

(* --- digest-collision guard --- *)

(* Fleet clustering treats equal canon digests as "structurally
   identical kernel" — an MD5 collision would silently merge different
   datapaths. The guard remembers, per digest, every distinct canonical
   code seen in this process and counts mismatches, making that failure
   mode observable (cayman cache stats) instead of silent. The count is
   schedule-independent: it equals the sum over digests of (distinct
   codes - 1), whatever order the codes arrive in. *)

let m_canon_collisions = Obs.Metrics.counter "memo.canon_collisions"

let guard_mutex = Mutex.create ()
let guard_tbl : (string, string list ref) Hashtbl.t = Hashtbl.create 1024

(* Bounds guard memory on pathological populations; past the cap new
   digests go unchecked (collisions among them would be uncounted, but
   recorded digests keep guarding). *)
let guard_cap = 1 lsl 16

let guard_digest ~digest ~code =
  Mutex.lock guard_mutex;
  (match Hashtbl.find_opt guard_tbl digest with
   | Some codes ->
     if not (List.mem code !codes) then begin
       codes := code :: !codes;
       Obs.Metrics.incr m_canon_collisions
     end
   | None ->
     if Hashtbl.length guard_tbl < guard_cap then
       Hashtbl.add guard_tbl digest (ref [ code ]));
  Mutex.unlock guard_mutex

let canon_digest c =
  let code = c.canon_code in
  let d = Digest.to_hex (Digest.string (version ^ "\n" ^ code)) in
  guard_digest ~digest:d ~code;
  d

let canon_region (func : Ir.Func.t) (region : An.Region.t) =
  let in_region l = An.Region.String_set.mem l region.An.Region.blocks in
  (* Canonical block order: BFS from the region entry in terminator
     successor order — renaming-invariant because it only follows the
     CFG shape. *)
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  let order = ref [] in
  let enqueue l =
    if in_region l && not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      Queue.add l queue
    end
  in
  enqueue region.An.Region.entry;
  while not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    order := l :: !order;
    match Ir.Func.find_block func l with
    | None -> ()
    | Some blk -> List.iter enqueue (Ir.Block.succs blk)
  done;
  let leftovers =
    List.filter
      (fun l -> not (Hashtbl.mem seen l))
      (An.Region.String_set.elements region.An.Region.blocks)
  in
  let block_order = List.rev !order @ leftovers in
  (* Name interning, in traversal/first-occurrence order. *)
  let labels = Hashtbl.create 16 in
  let exits = Hashtbl.create 8 in
  let regs = Hashtbl.create 64 in
  List.iter (fun l -> ignore (intern labels "B" l)) block_order;
  let canon_label l =
    if in_region l then intern labels "B" l else intern exits "X" l
  in
  let canon_reg r = intern regs "r" r in
  (* Two renderings share one traversal: [rn]/[ln] pick the name space. *)
  let cbuf = Buffer.create 1024 in
  let ebuf = Buffer.create 1024 in
  let ty t = Format.asprintf "%a" Ir.Types.pp t in
  let emit_block buf ~rn ~ln label =
    let reg (r : Ir.Instr.reg) = "%" ^ rn r.Ir.Instr.id ^ ":" ^ ty r.Ir.Instr.ty in
    let operand = function
      | Ir.Instr.Reg r -> reg r
      | Ir.Instr.Imm_int n -> string_of_int n
      | Ir.Instr.Imm_float x -> Printf.sprintf "%h" x
      | Ir.Instr.Imm_bool b -> string_of_bool b
    in
    let mem (m : Ir.Instr.mem_ref) =
      (* array symbols are global names, never renamed *)
      m.Ir.Instr.base ^ "[" ^ operand m.Ir.Instr.index ^ "]"
    in
    let add = Buffer.add_string buf in
    add (ln label);
    add ":\n";
    (match Ir.Func.find_block func label with
     | None -> add " <missing>\n"
     | Some blk ->
       List.iter
         (fun (i : Ir.Instr.t) ->
           add " ";
           (match i with
            | Ir.Instr.Assign (r, a) -> add (reg r ^ " = " ^ operand a)
            | Ir.Instr.Unary (r, op, a) ->
              add (reg r ^ " = " ^ Ir.Op.un_to_string op ^ " " ^ operand a)
            | Ir.Instr.Binary (r, op, a, b) ->
              add
                (reg r ^ " = " ^ Ir.Op.bin_to_string op ^ " " ^ operand a
               ^ ", " ^ operand b)
            | Ir.Instr.Compare (r, op, a, b) ->
              add
                (reg r ^ " = " ^ Ir.Op.cmp_to_string op ^ " " ^ operand a
               ^ ", " ^ operand b)
            | Ir.Instr.Select (r, c, a, b) ->
              add
                (reg r ^ " = select " ^ operand c ^ ", " ^ operand a ^ ", "
               ^ operand b)
            | Ir.Instr.Load (r, m) -> add (reg r ^ " = load " ^ mem m)
            | Ir.Instr.Store (m, v) -> add ("store " ^ mem m ^ ", " ^ operand v)
            | Ir.Instr.Call (r, f, args) ->
              (match r with
               | Some r -> add (reg r ^ " = ")
               | None -> ());
              add ("call " ^ f ^ "(");
              add (String.concat ", " (List.map operand args));
              add ")");
           add "\n")
         blk.Ir.Block.instrs;
       add " ";
       (match blk.Ir.Block.term with
        | Ir.Instr.Jump l -> add ("jump " ^ ln l)
        | Ir.Instr.Branch (c, t, f) ->
          add ("branch " ^ operand c ^ ", " ^ ln t ^ ", " ^ ln f)
        | Ir.Instr.Return None -> add "return"
        | Ir.Instr.Return (Some v) -> add ("return " ^ operand v));
       add "\n")
  in
  let kind =
    match region.An.Region.kind with
    | An.Region.Whole_function -> "whole"
    | An.Region.Basic_block -> "bb"
    | An.Region.Loop_region -> "loop"
    | An.Region.Cond_region -> "cond"
  in
  Buffer.add_string cbuf
    (Printf.sprintf "region %s blocks=%d\n" kind (List.length block_order));
  Buffer.add_string ebuf
    (Printf.sprintf "region %s %s/%d entry=%s blocks=%d\n" kind
       func.Ir.Func.name region.An.Region.id region.An.Region.entry
       (List.length block_order));
  List.iter
    (fun l ->
      emit_block cbuf ~rn:canon_reg ~ln:canon_label l;
      emit_block ebuf ~rn:(fun r -> r) ~ln:(fun l -> l) l)
    block_order;
  { canon_code = Buffer.contents cbuf;
    exact_code = Buffer.contents ebuf;
    block_order;
    canon_of_label =
      (fun l ->
        match Hashtbl.find_opt labels l with
        | Some c -> c
        | None ->
          (match Hashtbl.find_opt exits l with
           | Some c -> c
           | None -> "?" ^ l));
    canon_of_reg =
      (fun r ->
        match Hashtbl.find_opt regs r with
        | Some c -> c
        | None -> "?" ^ r) }

(* Listing a whole program is the dearest part of the keys that include
   it, and one evaluation keys the same program several times in a row
   (its profile, then one selection per method): each domain remembers
   the digest of the last program it listed. Programs are immutable, so
   physical equality identifies the listing. *)
let last_program : (Ir.Program.t * string) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let program_digest program =
  match Domain.DLS.get last_program with
  | Some (p, d) when p == program -> d
  | Some _ | None ->
    let d = Digest.to_hex (Digest.string (Ir.Program.to_string program)) in
    Domain.DLS.set last_program (Some (program, d));
    d
