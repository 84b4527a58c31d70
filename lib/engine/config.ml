(* --- settings --- *)

type 'a setting = {
  env : string;
  parse : string -> 'a option;
  default : unit -> 'a;
  (* Atomic: tests flip overrides around parallel pipeline runs. *)
  override : 'a option Atomic.t;
}

let setting ~env ~parse default =
  { env; parse; default; override = Atomic.make None }

let get s =
  match Atomic.get s.override with
  | Some v -> v
  | None ->
    (match Option.bind (Sys.getenv_opt s.env) s.parse with
     | Some v -> v
     | None -> s.default ())

let set s v = Atomic.set s.override (Some v)
let clear s = Atomic.set s.override None

let with_set s v f =
  let saved = Atomic.get s.override in
  set s v;
  Fun.protect ~finally:(fun () -> Atomic.set s.override saved) f

let positive_int s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

(* --- jobs --- *)

let env_var = "CAYMAN_JOBS"

(* More domains than this never helps (the container has far fewer
   cores) and each domain carries its own minor heap. *)
let max_jobs = 64

let clamp n = max 1 (min max_jobs n)

let jobs_setting =
  setting ~env:env_var
    ~parse:(fun s -> Option.map clamp (positive_int s))
    (fun () -> clamp (Domain.recommended_domain_count ()))

let set_jobs n = set jobs_setting (clamp n)
let clear_jobs () = clear jobs_setting

let jobs ?jobs () =
  match jobs with
  | Some n when n >= 1 -> clamp n
  | Some _ | None -> get jobs_setting

(* --- fuel --- *)

let fuel_env_var = "CAYMAN_FUEL"

let default_fuel = 2_000_000_000

let fuel_setting =
  setting ~env:fuel_env_var ~parse:positive_int (fun () -> default_fuel)

let set_fuel n = if n >= 1 then set fuel_setting n
let clear_fuel () = clear fuel_setting

let fuel ?fuel () =
  match fuel with
  | Some n when n >= 1 -> n
  | Some _ | None -> get fuel_setting
