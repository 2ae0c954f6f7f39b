(* Per-layer host-time accounting for the traced run.  Every span is taken
   from outside the program, around calls into a layer's public
   functions: [Timed] wraps an engine (the raw heap interface the
   workloads are written against), [typed_tx] wraps a typed-API
   transaction.  Accumulators are per domain; [merge] joins them. *)

let now_ns = Calib.now_ns

type acc = {
  mutable is_write : bool;  (** kind of the client operation in progress *)
  mutable fresh : (int * int) list;  (** blocks allocated by the open transaction *)
  mutable reads : int;
  mutable read_ns : int;
  mutable writes : int;
  mutable write_ns : int;
  mutable logged : int;  (** writes into blocks the transaction did not allocate *)
  mutable logged_ns : int;
  mutable allocs : int;
  mutable alloc_ns : int;
  mutable frees : int;
  mutable free_ns : int;
  mutable lock_ns : int;
  mutable tx_ns : int;  (** engine-side begin + commit time of every transaction *)
  mutable bodies : int;  (** write transactions *)
  mutable body_ns : int;
  commit : Samples.t;  (** commit time of each write transaction *)
  mutable finds : int;
  mutable find_ns : int;
  mutable ops : int;
  mutable op_ns : int;
}

let fresh_acc () =
  {
    is_write = false; fresh = []; reads = 0; read_ns = 0; writes = 0; write_ns = 0;
    logged = 0; logged_ns = 0; allocs = 0; alloc_ns = 0; frees = 0; free_ns = 0;
    lock_ns = 0; tx_ns = 0; bodies = 0; body_ns = 0; commit = Samples.create ();
    finds = 0; find_ns = 0; ops = 0; op_ns = 0;
  }

let key = Domain.DLS.new_key fresh_acc
let get () = Domain.DLS.get key
let reset () = Domain.DLS.set key (fresh_acc ())

let merge accs =
  let m = fresh_acc () in
  List.iter
    (fun a ->
      m.reads <- m.reads + a.reads;
      m.read_ns <- m.read_ns + a.read_ns;
      m.writes <- m.writes + a.writes;
      m.write_ns <- m.write_ns + a.write_ns;
      m.logged <- m.logged + a.logged;
      m.logged_ns <- m.logged_ns + a.logged_ns;
      m.allocs <- m.allocs + a.allocs;
      m.alloc_ns <- m.alloc_ns + a.alloc_ns;
      m.frees <- m.frees + a.frees;
      m.free_ns <- m.free_ns + a.free_ns;
      m.lock_ns <- m.lock_ns + a.lock_ns;
      m.tx_ns <- m.tx_ns + a.tx_ns;
      m.bodies <- m.bodies + a.bodies;
      m.body_ns <- m.body_ns + a.body_ns;
      Samples.append m.commit a.commit;
      m.finds <- m.finds + a.finds;
      m.find_ns <- m.find_ns + a.find_ns;
      m.ops <- m.ops + a.ops;
      m.op_ns <- m.op_ns + a.op_ns)
    accs;
  m

(* Time of the calls the workload made into the engine: everything but
   the workload's own code. *)
let engine_ns a =
  a.read_ns + a.write_ns + a.alloc_ns + a.free_ns + a.lock_ns + a.tx_ns

(* Run [run body'] where [body'] times [body]: the span between entering
   [run] and the body's start plus the span after it ends are the
   transaction layer's begin and commit. *)
let timed_tx run body =
  let a = get () in
  let t0 = now_ns () in
  let b0 = ref t0 and b1 = ref t0 in
  let r =
    run (fun tx ->
        a.fresh <- [];
        b0 := now_ns ();
        let r = body tx in
        b1 := now_ns ();
        r)
  in
  let t1 = now_ns () in
  a.tx_ns <- a.tx_ns + (!b0 - t0) + (t1 - !b1);
  if a.is_write then begin
    a.bodies <- a.bodies + 1;
    a.body_ns <- a.body_ns + (!b1 - !b0);
    Samples.add a.commit (float_of_int (t1 - !b1))
  end;
  r

module Timed (E : Engines.Engine_sig.S) :
  Engines.Engine_sig.S with type t = E.t and type tx = E.tx = struct
  include E

  let transaction t f = timed_tx (E.transaction t) f

  let read tx off =
    let a = get () in
    let t0 = now_ns () in
    let v = E.read tx off in
    a.read_ns <- a.read_ns + (now_ns () - t0);
    a.reads <- a.reads + 1;
    v

  let write tx off v =
    let a = get () in
    let logged = not (List.exists (fun (o, n) -> off >= o && off < o + n) a.fresh) in
    let t0 = now_ns () in
    E.write tx off v;
    let d = now_ns () - t0 in
    a.write_ns <- a.write_ns + d;
    a.writes <- a.writes + 1;
    if logged then begin
      a.logged <- a.logged + 1;
      a.logged_ns <- a.logged_ns + d
    end

  let alloc tx n =
    let a = get () in
    let t0 = now_ns () in
    let off = E.alloc tx n in
    a.alloc_ns <- a.alloc_ns + (now_ns () - t0);
    a.allocs <- a.allocs + 1;
    a.fresh <- (off, n) :: a.fresh;
    off

  let free tx off =
    let a = get () in
    let t0 = now_ns () in
    E.free tx off;
    a.free_ns <- a.free_ns + (now_ns () - t0);
    a.frees <- a.frees + 1

  let lock tx off =
    let a = get () in
    let t0 = now_ns () in
    E.lock tx off;
    a.lock_ns <- a.lock_ns + (now_ns () - t0)
end
