(* Seeded input generator.  Kept here rather than reused from the
   library's load generator so that a later change to the library cannot
   change the benchmark's inputs: the sequence is fixed by the algorithms
   below (splitmix64, Gray et al.'s bounded zipfian) and the seed alone. *)

(* --- splitmix64 ---------------------------------------------------------- *)

type rng = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rng seed = { s = mix64 (Int64.of_int seed) }

let next64 r =
  r.s <- Int64.add r.s golden;
  mix64 r.s

(* 62 uniform bits: always a non-negative OCaml int. *)
let bits62 r = Int64.to_int (Int64.shift_right_logical (next64 r) 2)

(* Uniform in [0, n) by rejection.  The draw covers [0, 2^62); 2^62 itself
   is not representable in a 63-bit int, so the excess over the largest
   multiple of [n] is computed from [max_int] = 2^62 - 1. *)
let below r n =
  if n <= 0 then invalid_arg "Gen.below";
  let excess = ((max_int mod n) + 1) mod n in
  let rec go () =
    let v = bits62 r in
    if excess <> 0 && v > max_int - excess then go () else v mod n
  in
  go ()

let unit_float r =
  Int64.to_float (Int64.shift_right_logical (next64 r) 11) *. (1.0 /. 9007199254740992.0)

(* --- bounded zipfian (Gray et al., as in YCSB) ---------------------------- *)

type zipf = { n : int; theta : float; alpha : float; zetan : float; eta : float }

let zeta n theta =
  let z = ref 0.0 in
  for i = 1 to n do
    z := !z +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !z

let zipf ~theta n =
  let zetan = zeta n theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta 2 theta /. zetan))
  in
  { n; theta; alpha; zetan; eta }

(* A rank in [0, n), rank 0 the hottest, scattered over the key range so
   that hot keys do not sit side by side. *)
let zipf_draw z r =
  let u = unit_float r in
  let uz = u *. z.zetan in
  let rank =
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 z.theta then 1
    else
      min (z.n - 1)
        (int_of_float (float_of_int z.n *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha))
  in
  Int64.to_int (Int64.shift_right_logical (mix64 (Int64.of_int (rank + 1))) 2) mod z.n

(* --- operations ----------------------------------------------------------- *)

type op =
  | Read of int
  | Update of int * int  (** key known present *)
  | Insert of int * int  (** upsert *)
  | Remove of int

let is_read = function Read _ -> true | _ -> false
let key_of = function Read k | Update (k, _) | Insert (k, _) | Remove k -> k

(* Every write stores a value never stored before: the CoW engine drops a
   publish of an unchanged word, so rewriting values would measure a
   path real updates never take.  [mix64] is a bijection on 64 bits, so
   distinct sequence numbers give distinct words; the low 61 bits keep
   the value a non-negative int and an int64 alike. *)
type values = { salt : int64; mutable seq : int }

let values seed = { salt = mix64 (Int64.of_int (seed lxor 0x5eed)); seq = 0 }

let fresh v =
  v.seq <- v.seq + 1;
  Int64.to_int (mix64 (Int64.add v.salt (Int64.of_int v.seq))) land ((1 lsl 61) - 1)

(* YCSB-A-like hash-table client over [base, base + nkeys) (all
   preloaded) plus a churn range of [churn] keys of which half are
   preloaded.  Half the operations read, the rest update, except a 6%
   churn share that alternates insert and remove: an insert takes the
   churn key absent longest, a remove the one present longest, so both
   always change the set and the live count returns to its preload value
   after every insert/remove pair. *)
type kv = {
  r : rng;
  z : zipf;
  base : int;
  vals : values;
  absent : int Queue.t;
  present : int Queue.t;
  mutable insert_next : bool;
}

let kv ~seed ~base ~nkeys ~churn =
  let r = rng seed in
  let absent = Queue.create () and present = Queue.create () in
  for i = 0 to churn - 1 do
    Queue.add (base + nkeys + i) (if i land 1 = 0 then present else absent)
  done;
  { r; z = zipf ~theta:0.99 nkeys; base; vals = values seed; absent; present;
    insert_next = true }

(* The preload: every hot key and the present half of the churn range. *)
let kv_preload g f =
  for i = 0 to g.z.n - 1 do
    f (g.base + i) (fresh g.vals)
  done;
  Queue.iter (fun k -> f k (fresh g.vals)) g.present

let kv_next g =
  let p = below g.r 100 in
  if p < 50 then Read (g.base + zipf_draw g.z g.r)
  else if p < 94 then Update (g.base + zipf_draw g.z g.r, fresh g.vals)
  else if g.insert_next then begin
    g.insert_next <- false;
    let k = Queue.pop g.absent in
    Queue.add k g.present;
    Insert (k, fresh g.vals)
  end
  else begin
    g.insert_next <- true;
    let k = Queue.pop g.present in
    Queue.add k g.absent;
    Remove k
  end

(* Ordered-index client: uniform keys over [0, nkeys), half preloaded;
   50% find, 25% insert (an update when the key is present), 25% remove
   (a miss when absent), so the live count stays near nkeys/2.  The
   preloaded half and its insertion order are the same for every seed:
   they set the tree's shape and the heap's fragmentation, which would
   otherwise move the per-operation cost from seed to seed. *)
type tree = { tr : rng; tn : int; tvals : values }

let tree ~seed ~nkeys = { tr = rng seed; tn = nkeys; tvals = values seed }

let tree_preload g f =
  let order = rng 0 in
  let keys = Array.init g.tn Fun.id in
  for i = g.tn - 1 downto 1 do
    let j = below order (i + 1) in
    let t = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- t
  done;
  for i = 0 to (g.tn / 2) - 1 do
    f keys.(i) (fresh g.tvals)
  done

let tree_next g =
  let p = below g.tr 4 in
  let k = below g.tr g.tn in
  if p < 2 then Read k else if p = 2 then Insert (k, fresh g.tvals) else Remove k
