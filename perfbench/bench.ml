(* Two-clock benchmark, main program.

   bench --workload kv-typed|btree-cow|kv-shared --seed N --seconds S
         --trace 0|1 [--corrupt]

   Prints human-readable lines, then (last line) one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  Exits 1 when
   any correctness check fails.  [--corrupt] is the negative control: it
   overwrites one stored value through the device, behind the program's
   back, so the run must fail.  See README.md. *)

open Corundum
module D = Pmem.Device
module W = Workload

let now_ns = Calib.now_ns

(* Shape of a run, per workload.  Windows are whole rounds of [window_ops]
   client operations; the simulated-clock figures are taken over the
   first [sim_windows] windows of the timed phase, a prefix every run
   reaches, so they repeat exactly for a seed. *)
type shape = {
  window_ops : int;
  warmup_windows : int;
  sim_windows : int;
  pools : int;  (** timed sub-phases, each on a pool set up afresh *)
  attaches : int;
}

let shape = function
  | "kv-typed" -> { window_ops = 4096; warmup_windows = 4; sim_windows = 64; pools = 5; attaches = 15 }
  | "btree-cow" -> { window_ops = 2048; warmup_windows = 4; sim_windows = 64; pools = 3; attaches = 15 }
  | _ -> { window_ops = 64; warmup_windows = 4; sim_windows = 0; pools = 3; attaches = 15 }

(* --- correctness bookkeeping ------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable first_wrong : string;
}

let tally () = { attempted = 0; failed = 0; wrong = 0; first_wrong = "" }

let wrong t fmt =
  Printf.ksprintf
    (fun s ->
      if t.wrong = 0 then t.first_wrong <- s;
      t.wrong <- t.wrong + 1)
    fmt

let show = function None -> "absent" | Some v -> string_of_int v

(* Run one client operation and check its output against the model. *)
let exec t (c : W.client) op =
  t.attempted <- t.attempted + 1;
  match op with
  | Gen.Read k -> (
      match c.store.get k with
      | r ->
          let m = Hashtbl.find_opt c.model k in
          if r <> m then wrong t "read %d: got %s, expected %s" k (show r) (show m)
      | exception _ -> t.failed <- t.failed + 1)
  | Update (k, v) | Insert (k, v) -> (
      match c.store.put k v with
      | () -> Hashtbl.replace c.model k v
      | exception _ -> t.failed <- t.failed + 1)
  | Remove k -> (
      match c.store.del k with
      | r ->
          let m = Hashtbl.mem c.model k in
          Hashtbl.remove c.model k;
          if r <> m then wrong t "remove %d: returned %b, key %s" k r (if m then "present" else "absent")
      | exception _ -> t.failed <- t.failed + 1)

(* --- timed windows ----------------------------------------------------------- *)

type window = {
  ops : int;
  ns : int;  (** raw host time of the window *)
  kern : float;  (** kernel run just after it, ms *)
  r_end : int;  (** read samples recorded up to the end of the window *)
  w_end : int;
  mutable f : float;  (** calibration factor: [ref_ms] over the local kernel time *)
}

type phase = {
  mutable windows : window list;  (** newest first *)
  raw_r : Samples.t;
  raw_w : Samples.t;
  cal_r : Samples.t;
  cal_w : Samples.t;
  t : tally;
}

(* A single kernel run is as noisy as a window (a stalled run reads several
   times too slow), so a window is calibrated by the median kernel time
   over the [smooth] windows on either side of it: that follows machine
   speed over seconds and ignores single outliers. *)
let smooth = 8

let calibrate ph =
  let ws = Array.of_list (List.rev ph.windows) in
  let n = Array.length ws in
  Array.iteri
    (fun i w ->
      let lo = max 0 (i - smooth) and hi = min (n - 1) (i + smooth) in
      let ks = List.init (hi - lo + 1) (fun j -> ws.(lo + j).kern) in
      w.f <- Calib.ref_ms /. Samples.median_of_list ks)
    ws;
  let r0 = ref 0 and w0 = ref 0 in
  Array.iter
    (fun w ->
      Samples.add_scaled ph.cal_r ph.raw_r ~from:!r0 ~upto:w.r_end w.f;
      Samples.add_scaled ph.cal_w ph.raw_w ~from:!w0 ~upto:w.w_end w.f;
      r0 := w.r_end;
      w0 := w.w_end)
    ws

(* All clients of a phase meet here.  Spinning is fine: each client
   domain has a core to itself, and the main domain sleeps in
   [Domain.join]. *)
type barrier = { parties : int; arrived : int Atomic.t; sense : bool Atomic.t }

let barrier parties = { parties; arrived = Atomic.make 0; sense = Atomic.make false }

let await b local =
  local := not !local;
  if Atomic.fetch_and_add b.arrived 1 = b.parties - 1 then begin
    Atomic.set b.arrived 0;
    Atomic.set b.sense !local
  end
  else
    while Atomic.get b.sense <> !local do
      Domain.cpu_relax ()
    done

(* Windows of [window_ops] operations until [min_windows] have run and the
   deadline has passed, each followed by one kernel run.  Clients on
   several domains run their windows and kernels in lockstep: a client's
   kernel run then never leaves the other client committing alone, which
   would change what group commit does in its window. *)
let run_phase ~(c : W.client) ~window_ops ~min_windows ~deadline ~traced ~on_window ~sync ~stop
    ~leader =
  let ph =
    {
      windows = [];
      raw_r = Samples.create ();
      raw_w = Samples.create ();
      cal_r = Samples.create ();
      cal_w = Samples.create ();
      t = tally ();
    }
  in
  let ops = Array.make window_ops (Gen.Read 0) in
  let nw = ref 0 in
  while not (Atomic.get stop) do
    for i = 0 to window_ops - 1 do
      ops.(i) <- c.next ()
    done;
    let a = Layers.get () in
    let t0 = now_ns () in
    for i = 0 to window_ops - 1 do
      let op = ops.(i) in
      let read = Gen.is_read op in
      if traced then a.is_write <- not read;
      let s = now_ns () in
      exec ph.t c op;
      let d = now_ns () - s in
      if traced then begin
        a.ops <- a.ops + 1;
        a.op_ns <- a.op_ns + d
      end;
      Samples.add (if read then ph.raw_r else ph.raw_w) (float_of_int d)
    done;
    let t1 = now_ns () in
    sync ();
    let kern = Calib.run () in
    ph.windows <-
      { ops = window_ops; ns = t1 - t0; kern; r_end = ph.raw_r.n; w_end = ph.raw_w.n; f = 1.0 }
      :: ph.windows;
    incr nw;
    on_window !nw;
    if leader && !nw >= min_windows && now_ns () >= deadline then Atomic.set stop true;
    sync ()
  done;
  calibrate ph;
  ph

(* Run the phase on the main domain, or on one fresh domain per client
   while the main domain idles in [Domain.join]. *)
let run_clients (w : W.t) ~window_ops ~min_windows ~seconds ~traced ~on_window =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let b = barrier (Array.length w.clients) and stop = Atomic.make false in
  let go c ~leader ~on_window =
    Layers.reset ();
    let local = ref false in
    let sync () = await b local in
    let ph = run_phase ~c ~window_ops ~min_windows ~deadline ~traced ~on_window ~sync ~stop ~leader in
    (ph, Layers.get ())
  in
  if Array.length w.clients = 1 then [ go w.clients.(0) ~leader:true ~on_window ]
  else
    Array.to_list w.clients
    |> List.mapi (fun i c ->
           Domain.spawn (fun () ->
               w.enter_domain ();
               Fun.protect ~finally:w.leave_domain (fun () ->
                   go c ~leader:(i = 0) ~on_window:ignore)))
    |> List.map Domain.join

let ops_of phs = List.fold_left (fun a (ph, _) -> a + ph.t.attempted) 0 phs

(* Throughput: per client, the median over its windows in every
   sub-phase ([subs] holds one list of client phases per sub-phase);
   summed over clients. *)
let throughput subs ~calibrated =
  let rate w = float_of_int w.ops *. 1e9 /. (float_of_int w.ns *. if calibrated then w.f else 1.0) in
  let per_client =
    List.fold_left
      (fun acc phs -> List.map2 (fun rates (ph, _) -> List.map rate ph.windows @ rates) acc phs)
      (List.map (fun _ -> []) (List.hd subs))
      subs
  in
  List.fold_left (fun acc rates -> acc +. Samples.median_of_list rates) 0.0 per_client

(* A latency percentile: the median, over runs of [chunk] consecutive
   samples, of each run's percentile.  A rare stall of the machine moves a
   few runs, not the median of them.  The samples of all clients and
   sub-phases are pooled first, so that where there are fewer than five
   runs' worth ([kv-shared]) the percentile is taken over all of them. *)
let chunk = 2000

let latency phs field q =
  let pooled = Samples.create () in
  List.iter (fun (ph, _) -> Samples.append pooled (field ph)) phs;
  Samples.median_of_list (Samples.chunk_pcts pooled ~chunk q) /. 1e3

let samples phs field = List.fold_left (fun a (ph, _) -> a + (field ph).Samples.n) 0 phs

let kernels phs = List.concat_map (fun (ph, _) -> List.map (fun w -> w.kern) ph.windows) phs

let add_tallies into phs =
  List.iter
    (fun (ph, _) ->
      into.attempted <- into.attempted + ph.t.attempted;
      into.failed <- into.failed + ph.t.failed;
      if ph.t.wrong > 0 && into.wrong = 0 then into.first_wrong <- ph.t.first_wrong;
      into.wrong <- into.wrong + ph.t.wrong)
    phs

(* --- crash, power cycle, attach ------------------------------------------------ *)

(* The next operation of client 0 that changes the store: a remove of an
   absent key commits nothing, so no persist point would fall inside it. *)
let rec next_write (c : W.client) =
  match c.next () with
  | Gen.Read _ -> next_write c
  | Remove k when not (Hashtbl.mem c.model k) -> next_write c
  | op -> op

(* Crash inside one write of client 0 at its [countdown]-th persist
   point, power-cycle, re-attach.  The in-flight write must be present
   entirely or not at all; the model takes whichever outcome survived. *)
let crash_cycle (w : W.t) t ~countdown =
  let c = w.clients.(0) in
  let op = next_write c in
  let k = Gen.key_of op in
  let before = Hashtbl.find_opt c.model k in
  let after_write = match op with Update (_, v) | Insert (_, v) -> Some v | _ -> None in
  let dev = w.device () in
  if w.ack_fence then D.fence dev;
  D.set_crash_countdown dev countdown;
  let crashed =
    match op with
    | Update (k, v) | Insert (k, v) -> (try c.store.put k v; false with D.Crashed -> true)
    | Remove k -> (try ignore (c.store.del k); false with D.Crashed -> true)
    | Read _ -> false
  in
  D.set_crash_countdown dev 0;
  if not crashed then wrong t "crash at persist point %d did not land inside the write" countdown;
  D.power_cycle dev;
  Gc.full_major ();
  let k0 = Calib.run () in
  let r = w.reattach () in
  let k1 = Calib.run () in
  let got = c.store.get k in
  if got = after_write then (
    match got with Some v -> Hashtbl.replace c.model k v | None -> Hashtbl.remove c.model k)
  else if got <> before then
    wrong t "in-flight write of key %d: found %s, expected %s or %s" k (show got) (show before)
      (show after_write);
  (r, (k0 +. k1) /. 2.0)

(* --- final audit --------------------------------------------------------------- *)

let audit (w : W.t) t =
  Array.iter
    (fun (c : W.client) ->
      List.iter
        (fun k ->
          let got = c.store.get k and m = Hashtbl.find_opt c.model k in
          if got <> m then wrong t "final contents, key %d: found %s, expected %s" k (show got) (show m))
        c.keys)
    w.clients;
  (match w.verify () with Ok () -> () | Error e -> wrong t "%s" e);
  let report = Pool_check.check_device (w.device ()) in
  if not (Pool_check.ok report) then
    wrong t "fsck verdict nonzero: %s" (Format.asprintf "%a" Pool_check.pp report);
  match w.leaks () with Ok () -> () | Error e -> wrong t "leak check: %s" e

(* Negative control: overwrite the value of client 0's smallest live key,
   found by scanning the live blocks for its word, and make it durable. *)
let corrupt (w : W.t) t =
  let c = w.clients.(0) in
  let k = Hashtbl.fold (fun k _ m -> min k m) c.model max_int in
  let v = Int64.of_int (Hashtbl.find c.model k) in
  let dev = w.device () in
  let hit =
    List.find_map
      (fun b ->
        let rec scan o =
          if o >= b.Palloc.Heap_walk.off + b.Palloc.Heap_walk.size then None
          else if D.read_u64 dev o = v then Some o
          else scan (o + 8)
        in
        scan b.Palloc.Heap_walk.off)
      (Palloc.Heap_walk.live_blocks (Pool_impl.buddy (w.pool ())))
  in
  match hit with
  | Some o ->
      D.write_u64 dev o (Int64.logxor v 1L);
      D.persist dev o 8;
      Printf.printf "negative control: overwrote the value of key %d at offset %d\n" k o
  | None -> wrong t "negative control: value of key %d not found on media" k

(* --- output -------------------------------------------------------------------- *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u) metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let phase_sim name (r : W.recovery) =
  Option.value ~default:0.0 (List.assoc_opt name r.stats.Pjournal.Recovery.phase_ns)

let median_by f l = Samples.median_of_list (List.map f l)
let per x n = if n = 0 then 0.0 else float_of_int x /. float_of_int n

(* --- main ---------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let corrupt_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kv-typed | btree-cow | kv-shared");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--corrupt", Arg.Set corrupt_mode, " negative control: corrupt one stored value");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1 [--corrupt]";
  let make =
    match List.assoc_opt !workload W.all with
    | Some m -> m
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  (* A 32 MiB minor heap per domain: the per-operation garbage dies
     young instead of being promoted, so major-collection work, whose
     pace depends on the whole heap rather than on the operation, stays
     out of most windows. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 lsl 20 };
  let traced_run = !trace = 1 in
  let sh = shape !workload in
  let t = tally () in
  (* Set-up: pool creation and preload, timed. *)
  let setup_s = ref [] in
  let setup () =
    Gc.full_major ();
    let k0 = Calib.run () in
    let t0 = now_ns () in
    let inst = make ~seed:!seed in
    let t1 = now_ns () in
    let k1 = Calib.run () in
    setup_s := (float_of_int (t1 - t0) /. 1e9, (k0 +. k1) /. 2.0) :: !setup_s;
    inst
  in
  (* Warm-up windows, discarded. *)
  let warm_up w =
    add_tallies t
      (run_clients w ~window_ops:sh.window_ops ~min_windows:sh.warmup_windows ~seconds:0.0
         ~traced:false ~on_window:ignore)
  in
  (* The timed phase is split into [parts] sub-phases, each on a pool of its
     own, set up afresh.  How fast the same operations run depends on where
     the pool's memory happens to lie (one process reads 30 % slower than
     the next while its writes and the kernel run as usual), so a run takes
     the median over several placements rather than one. *)
  let parts = if traced_run then 1 else sh.pools in
  let main_seconds = if traced_run then float_of_int !seconds /. 2.0 else float_of_int !seconds in
  let sub_seconds = main_seconds /. float_of_int parts in
  let w = setup () in
  let dev = w.device () in
  warm_up w;
  (* Crash inside a write, power-cycle, attach: repeated. *)
  let recs = List.init sh.attaches (fun i -> crash_cycle w t ~countdown:(2 + (i mod 3))) in
  (* First sub-phase.  The simulated-clock and count figures come from its
     first [sim_windows] windows (the whole sub-phase on several domains). *)
  let live_keys () = Array.fold_left (fun a (c : W.client) -> a + Hashtbl.length c.model) 0 w.clients in
  (* [Pool_impl.stats] walks the allocation table through the device, so
     the device is read both before and after it: an interval runs from
     one snapshot's after-reading to the next one's before-reading and
     never includes the walk. *)
  let snap () =
    let sim = D.simulated_ns dev in
    let st = D.stats dev in
    let ps = Pool_impl.stats (w.pool ()) in
    let sim' = D.simulated_ns dev in
    (sim, st, ps, live_keys (), (sim', D.stats dev))
  in
  let gc_stats (w : W.t) = Pool_impl.group_commit_stats (w.pool ()) in
  let s_start = snap () and gc_start = gc_stats w in
  let s_prefix = ref None in
  let on_window n = if n = sh.sim_windows then s_prefix := Some (snap ()) in
  let first =
    run_clients w ~window_ops:sh.window_ops ~min_windows:(max 1 sh.sim_windows)
      ~seconds:sub_seconds ~traced:false ~on_window
  in
  add_tallies t first;
  let s_end = snap () in
  let (_, _, ps0, _, (sim0, st0)), (sim1, st1, ps1, live1, _), sim_ops =
    match !s_prefix with
    | Some p -> (s_start, p, sh.sim_windows * sh.window_ops)
    | None -> (s_start, s_end, ops_of first)
  in
  (* The other sub-phases.  Each pool is audited and dropped before the
     next is set up, so that one pool at a time is in memory. *)
  let cur = ref (Some w) and subs = ref [ first ] in
  for _ = 2 to parts do
    audit (Option.get !cur) t;
    cur := None;
    let w = setup () in
    cur := Some w;
    warm_up w;
    let ph =
      run_clients w ~window_ops:sh.window_ops ~min_windows:1 ~seconds:sub_seconds ~traced:false
        ~on_window:ignore
    in
    add_tallies t ph;
    subs := ph :: !subs
  done;
  let w = Option.get !cur and subs = List.rev !subs in
  let main = List.concat subs in
  let traced =
    if not traced_run then []
    else begin
      w.set_traced true;
      let ph =
        run_clients w ~window_ops:sh.window_ops ~min_windows:1
          ~seconds:(float_of_int !seconds /. 2.0) ~traced:true ~on_window:ignore
      in
      w.set_traced false;
      add_tallies t ph;
      ph
    end
  in
  let gc_end = gc_stats w in
  (* Final crash check, then the audit. *)
  if !corrupt_mode then corrupt w t;
  ignore (crash_cycle w t ~countdown:2);
  audit w t;
  let correct = t.wrong = 0 in
  if not correct then Printf.printf "CHECK FAILED (%d): %s\n" t.wrong t.first_wrong;
  let kern_ms = Samples.median_of_list (kernels main) in
  let cal_r ph = ph.cal_r and cal_w ph = ph.cal_w and raw_r ph = ph.raw_r and raw_w ph = ph.raw_w in
  let ops_s = throughput subs ~calibrated:true in
  (* An attach or a set-up is one short event, calibrated by the kernel
     runs on either side of it; the median over the events is reported. *)
  let recover_raw_ms = median_by (fun ((r : W.recovery), _) -> float_of_int r.host_ns /. 1e6) recs in
  let recover_ms = recover_raw_ms *. Calib.ref_ms /. median_by snd recs in
  let recover_sim_us = median_by (fun ((r : W.recovery), _) -> r.sim_ns /. 1e3) recs in
  let space_amp = per ps1.Pool_impl.heap_used (16 * live1) in
  let sim_ns_per_op = (sim1 -. sim0) /. float_of_int sim_ops in
  let setup_raw = median_by fst !setup_s in
  let setup_cal = setup_raw *. Calib.ref_ms /. median_by snd !setup_s in
  Printf.printf
    "%s seed %d: %d windows of %d ops; %d read and %d write samples; kernel median %.4f ms\n"
    w.name !seed (List.length (kernels main)) sh.window_ops (samples main cal_r) (samples main cal_w)
    kern_ms;
  Printf.printf
    "raw host: ops_per_s %.1f read p50/p95 %.3f/%.3f us write p50/p95 %.3f/%.3f us recover %.4f ms \
     setup %.4f s\n"
    (throughput subs ~calibrated:false)
    (latency main raw_r 0.5) (latency main raw_r 0.95) (latency main raw_w 0.5)
    (latency main raw_w 0.95) recover_raw_ms setup_raw;
  let metrics =
    if not traced_run then
      [
        ("ops_per_s", ops_s, "1/s");
        ("read_p50_us", latency main cal_r 0.5, "us");
        ("read_p95_us", latency main cal_r 0.95, "us");
        ("write_p50_us", latency main cal_w 0.5, "us");
        ("sim_ns_per_op", sim_ns_per_op, "ns");
        ("recover_sim_us", recover_sim_us, "us");
        ("space_amp", space_amp, "ratio");
        ("setup_s", setup_cal, "s");
      ]
    else begin
      let a = Layers.merge (List.map snd traced) in
      let tkern = Samples.median_of_list (kernels traced) in
      let f = Calib.ref_ms /. tkern in
      let host x n = per x n *. f in
      let dops = sim_ops in
      let d field = field st1 - field st0 in
      let logged_bytes = ps1.Pool_impl.logged_bytes - ps0.Pool_impl.logged_bytes in
      let undo = logged_bytes > 0 in
      let commit = Samples.sorted a.commit in
      let cp q = Samples.pct commit q *. f in
      let raw_engine = a.reads > 0 in
      let epochs, commits =
        match (gc_start, gc_end) with
        | Some g0, Some g1 ->
            (g1.Pjournal.Group_commit.epochs - g0.epochs, g1.commits - g0.commits)
        | _ -> (0, 0)
      in
      let all_ops = ops_of main + ops_of traced in
      [
        ("pmem.flushes_per_op", per (d (fun s -> s.D.flushes)) dops, "count");
        ("pmem.fences_per_op", per (d (fun s -> s.D.fences)) dops, "count");
        ("pmem.fence_lines_per_op", per (d (fun s -> s.D.fence_lines)) dops, "count");
        ("pmem.loads_per_op", per (d (fun s -> s.D.loads)) dops, "count");
        ("pmem.stores_per_op", per (d (fun s -> s.D.stores)) dops, "count");
        ("palloc.alloc_ns", host a.alloc_ns a.allocs, "ns");
        ("palloc.free_ns", host a.free_ns a.frees, "ns");
        ( "palloc.allocs_per_op",
          (* the CoW engine reserves blocks below the pool's counters *)
          (if raw_engine then per a.allocs a.ops
           else per (ps1.Pool_impl.allocations - ps0.Pool_impl.allocations) dops),
          "count" );
        ("palloc.steps_per_op", per (d (fun s -> s.D.alloc_steps)) dops, "count");
        ("pjournal.log_ns", (if undo then host a.logged_ns a.logged else 0.0), "ns");
        ("pjournal.logged_bytes_per_op", per logged_bytes dops, "B");
        ("pjournal.commit_p50_ns", (if undo then cp 0.5 else 0.0), "ns");
        ("pjournal.commit_p99_ns", (if undo then cp 0.99 else 0.0), "ns");
        ("group_commit.occupancy", per commits epochs, "count");
        ("group_commit.epochs_per_op", per epochs all_ops, "count");
        ("core.tx_body_ns", host a.body_ns a.bodies, "ns");
        ("core.find_ns", host a.find_ns a.finds, "ns");
        ("core.cow_commit_ns", (if undo then 0.0 else cp 0.5), "ns");
        ("core.attach_ns", recover_ms *. 1e6, "ns");
        ("recovery.table_scan_sim_ns", median_by (fun (r, _) -> phase_sim "table_scan" r) recs, "ns");
        ("recovery.walk_sim_ns", median_by (fun (r, _) -> phase_sim "walk" r) recs, "ns");
        ("recovery.rollback_sim_ns", median_by (fun (r, _) -> phase_sim "rollback" r) recs, "ns");
        ("recovery.cow_sim_ns", median_by (fun (r, _) -> phase_sim "cow" r) recs, "ns");
        ("engines.read_ns", (if raw_engine then host a.read_ns a.reads else 0.0), "ns");
        ("engines.write_ns", (if raw_engine then host a.write_ns a.writes else 0.0), "ns");
        ( "workloads.self_ns",
          (if raw_engine then host (a.op_ns - Layers.engine_ns a) a.ops else 0.0),
          "ns" );
        ("calib.kernel_ms", tkern, "ms");
        ("trace.overhead", ops_s /. throughput [ traced ] ~calibrated:true, "ratio");
      ]
    end
  in
  print_result ~correct ~attempted:t.attempted ~failed:t.failed metrics;
  exit (if correct then 0 else 1)
