(* Calibration kernel.  Host time on a shared virtual machine drifts by
   tens of percent, within one process and between processes, with CPU
   time tracking wall time: the drift is machine speed, not preemption.
   The benchmark runs this fixed kernel next to every timed window and
   divides host times by the kernel's time there, then multiplies by
   [ref_ms]: the figures read as host time on a reference machine, one on
   which the kernel takes exactly [ref_ms].

   The drift is not the same for every kind of code.  Windows of the
   single-domain workloads slow down by up to 1.8x while a serial
   arithmetic loop over 16 KiB slows by about 15 % and a pointer chase
   over 64 MiB by about 20 %; what follows them is code like theirs:
   hashing, branching and pointer chasing through a table of about the
   size of L2, run just after the window has evicted it.  The group
   commit's linger, a spin of [Domain.cpu_relax] rounds, follows the
   serial loop instead.  So the kernel has two parts of about equal time:
   [hash_rounds] lookups and in-place replacements in a stdlib [Hashtbl]
   of [nkeys] int keys (about 2 MiB of buckets and cells), then
   [loop_rounds] rounds of xorshift mixing with a load and a store into a
   16 KiB table.  It calls no program code and allocates nothing
   ([Hashtbl.replace] of a present key rewrites its cell), so collector
   work that belongs to the program never lands in it.  Never change the
   kernel, its constants or [ref_ms]: every calibrated figure ever
   reported is relative to them. *)

let ref_ms = 8.0
let nkeys = 50_000
let hash_rounds = 30_000
let loop_rounds = 500_000

(* Tables per domain: kernels running at once on two domains must not
   share cache lines. *)
type tables = { h : (int, int) Hashtbl.t; small : Bytes.t }

let tables =
  Domain.DLS.new_key (fun () ->
      let h = Hashtbl.create 65_536 in
      for k = 0 to nkeys - 1 do
        Hashtbl.replace h k k
      done;
      { h; small = Bytes.make (1 lsl 14) '\000' })

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let xorshift v =
  let v = v lxor (v lsl 13) in
  let v = v lxor (v lsr 7) in
  v lxor (v lsl 17)

let work t =
  let x = ref 0x243F6A8885A308D3 and acc = ref 0 in
  for i = 1 to hash_rounds do
    x := xorshift !x;
    let k = (!x land max_int) mod nkeys in
    if i land 1 = 0 then Hashtbl.replace t.h k i else acc := !acc + Hashtbl.find t.h k
  done;
  for i = 1 to loop_rounds do
    x := xorshift !x;
    let idx = !x land 0x3FF8 in
    Bytes.set_int64_le t.small idx (Int64.add (Bytes.get_int64_le t.small idx) (Int64.of_int i))
  done;
  ignore (Sys.opaque_identity (!acc + !x))

(* One timed run of the kernel, in ms.  A domain's first run builds its
   table outside the timed span. *)
let run () =
  let t = Domain.DLS.get tables in
  let t0 = now_ns () in
  work t;
  float_of_int (now_ns () - t0) /. 1e6
