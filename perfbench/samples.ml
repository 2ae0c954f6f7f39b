(* Growable float buffers and order statistics. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 4096 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

(* Append [src.(from) .. src.(upto - 1)], each multiplied by [f]. *)
let add_scaled dst src ~from ~upto f =
  for i = from to upto - 1 do
    add dst (src.a.(i) *. f)
  done

let append dst src = add_scaled dst src ~from:0 ~upto:src.n 1.0

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The [q]-percentile of each run of [chunk] consecutive samples (the
   last run takes the remainder); fewer than five runs' worth of samples
   make one run, since the median of two or three percentiles is steadier
   than none of them. *)
let chunk_pcts s ~chunk q =
  let k = if s.n < 5 * chunk then 1 else s.n / chunk in
  List.init (if s.n = 0 then 0 else k) (fun i ->
      let lo = i * chunk in
      let hi = if i = k - 1 then s.n else lo + chunk in
      let a = Array.sub s.a lo (hi - lo) in
      Array.sort Float.compare a;
      pct a q)

let median_of_list l = pct (let a = Array.of_list l in Array.sort Float.compare a; a) 0.5
