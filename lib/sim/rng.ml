(** Deterministic random number generation for workloads.

    A thin wrapper over [Random.State] with explicit seeding and a [split]
    operation so that independent workload components (data generator, DU
    stream, SC stream) draw from independent streams and experiments are
    exactly reproducible run-to-run. *)

type t = Random.State.t

let make seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bd1e995 |]

(** [split t] derives an independent generator; the parent advances. *)
let split t =
  let s = Random.State.int t 0x3FFFFFFF in
  make s

let int t bound = Random.State.int t bound

(** [int_in t lo hi] uniform in the inclusive range [lo..hi]. *)
let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + Random.State.int t (hi - lo + 1)

let float t bound = Random.State.float t bound

let bool t = Random.State.bool t

(** [bernoulli t p] is true with probability [p].  Consumes no draw when
    the outcome is certain ([p <= 0] or [p >= 1]), so rate-zero fault
    configurations leave the stream untouched. *)
let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else Random.State.float t 1.0 < p

(** [pick t xs] uniform element of a non-empty list. *)
let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

(** [pick_weighted t xs] picks from [(weight, x)] pairs with probability
    proportional to weight. *)
let pick_weighted t xs =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 xs in
  if total <= 0.0 then invalid_arg "Rng.pick_weighted: no positive weight";
  let r = float t total in
  let rec go acc = function
    | [] -> snd (List.hd (List.rev xs))
    | (w, x) :: rest -> if acc +. w >= r then x else go (acc +. w) rest
  in
  go 0.0 xs

(** [shuffle t xs] Fisher–Yates shuffle. *)
let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(** Random identifier-ish string of length [n]. *)
let ident t n =
  String.init n (fun _ -> Char.chr (Char.code 'a' + int t 26))
