(* The three workloads.  Each owns one pool, a reference model per client
   (a volatile map of every key's expected value) and the means to crash,
   re-attach and audit the pool. *)

open Corundum
module D = Pmem.Device

let now_ns = Calib.now_ns

(* One client's view of the store: the untimed or the traced path. *)
type store = { get : int -> int option; put : int -> int -> unit; del : int -> bool }

type client = {
  next : unit -> Gen.op;
  keys : int list;  (** every key this client may touch *)
  model : (int, int) Hashtbl.t;
  mutable store : store;
}

type recovery = { host_ns : int; sim_ns : float; stats : Pjournal.Recovery.stats }

type t = {
  name : string;
  clients : client array;  (** one per domain; a single client runs on the main domain *)
  device : unit -> D.t;
  pool : unit -> Pool_impl.t;
  set_traced : bool -> unit;
  ack_fence : bool;
      (** The engine makes a commit durable only at the next fence (the
          CoW engine's buffered durability, DESIGN.md §14), so a caller
          acknowledges its writes by issuing one. *)
  reattach : unit -> recovery;
      (** On a power-cycled device: [Pool_impl.attach] (journal and CoW
          recovery, allocation-table scan) plus the engine's re-bind. *)
  verify : unit -> (unit, string) result;  (** structure check *)
  leaks : unit -> (unit, string) result;
  enter_domain : unit -> unit;  (** called by each client domain first *)
  leave_domain : unit -> unit;
}

let client ~next ~keys store = { next; keys; model = Hashtbl.create 1024; store }

(* Live blocks the allocator holds against the blocks a walk from the
   structure's root reaches. *)
let compare_reach pool reach =
  let live = Palloc.Heap_walk.live_blocks (Pool_impl.buddy pool) in
  let reach_tbl = Hashtbl.create 4096 in
  List.iter (fun o -> Hashtbl.replace reach_tbl o ()) reach;
  let leaked = List.filter (fun b -> not (Hashtbl.mem reach_tbl b.Palloc.Heap_walk.off)) live in
  let live_tbl = Hashtbl.create 4096 in
  List.iter (fun b -> Hashtbl.replace live_tbl b.Palloc.Heap_walk.off ()) live;
  let dangling = List.filter (fun o -> not (Hashtbl.mem live_tbl o)) reach in
  if leaked = [] && dangling = [] then Ok ()
  else
    Error
      (Printf.sprintf "%d leaked and %d dangling blocks (%d live, %d reachable)"
         (List.length leaked) (List.length dangling) (List.length live) (List.length reach))

let range a b = List.init (b - a) (fun i -> a + i)

(* --- kv-typed: the typed API ---------------------------------------------- *)

module P = Pool.Make ()

let kv_nkeys = 50_000
let kv_churn = 2_048
let typed_ty = Phashtbl.ptype Ptype.int

let kv_typed ~seed =
  if P.is_open () then P.close ();
  P.create ~latency:Pmem.Latency.optane ();
  let dev = Pool_impl.device (P.impl ()) in
  let root () = P.root ~ty:typed_ty ~init:(fun j -> Phashtbl.make ~vty:Ptype.int j) () in
  let h = ref (Pbox.get (root ())) in
  let plain =
    {
      get = (fun k -> Phashtbl.find !h k);
      put = (fun k v -> P.transaction (fun j -> Phashtbl.add !h ~key:k v j));
      del = (fun k -> P.transaction (fun j -> Phashtbl.remove !h k j));
    }
  in
  let traced =
    {
      get =
        (fun k ->
          let a = Layers.get () in
          let t0 = now_ns () in
          let r = Phashtbl.find !h k in
          a.finds <- a.finds + 1;
          a.find_ns <- a.find_ns + (now_ns () - t0);
          r);
      put = (fun k v -> Layers.timed_tx P.transaction (fun j -> Phashtbl.add !h ~key:k v j));
      del = (fun k -> Layers.timed_tx P.transaction (fun j -> Phashtbl.remove !h k j));
    }
  in
  let g = Gen.kv ~seed ~base:0 ~nkeys:kv_nkeys ~churn:kv_churn in
  let c = client ~next:(fun () -> Gen.kv_next g) ~keys:(range 0 (kv_nkeys + kv_churn)) plain in
  Gen.kv_preload g (fun k v ->
      plain.put k v;
      Hashtbl.replace c.model k v);
  let reattach () =
    let s0 = D.simulated_ns dev in
    let t0 = now_ns () in
    let p = Pool_impl.attach dev in
    let t1 = now_ns () in
    let s1 = D.simulated_ns dev in
    (* The typed binding can only take the media back through its own
       reopen, which attaches a second time to the now-clean image; only
       the first, recovering attach and the root re-bind are timed. *)
    P.crash_and_reopen ();
    let s2 = D.simulated_ns dev in
    let t2 = now_ns () in
    h := Pbox.get (root ());
    let t3 = now_ns () in
    let s3 = D.simulated_ns dev in
    { host_ns = t1 - t0 + (t3 - t2); sim_ns = s1 -. s0 +. (s3 -. s2);
      stats = Pool_impl.recovery_stats p }
  in
  {
    name = "kv-typed";
    clients = [| c |];
    device = (fun () -> dev);
    pool = P.impl;
    set_traced = (fun on -> c.store <- (if on then traced else plain));
    ack_fence = false;
    reattach;
    verify =
      (fun () ->
        match Phashtbl.check !h with
        | Error e -> Error ("Phashtbl.check: " ^ e)
        | Ok () ->
            if Phashtbl.length !h <> Hashtbl.length c.model then
              Error
                (Printf.sprintf "table holds %d keys, model %d" (Phashtbl.length !h)
                   (Hashtbl.length c.model))
            else Ok ());
    leaks =
      (fun () ->
        let r = Crashtest.Leak_check.analyze (P.impl ()) ~root_ty:typed_ty in
        if Crashtest.Leak_check.is_clean r then Ok ()
        else Error (Format.asprintf "%a" Crashtest.Leak_check.pp r));
    enter_domain = ignore;
    leave_domain = ignore;
  }

(* --- btree-cow: B+tree over the CoW engine -------------------------------- *)

module ME = Engines.Mod_engine
module BT = Workloads.Bptree.Make (ME)
module TBT = Workloads.Bptree.Make (Layers.Timed (ME))

let bt_nkeys = 560_000
let bt_pool = 16 * 1024 * 1024

let opt64 = Option.map Int64.to_int

let bt_store find insert remove eng =
  {
    get = (fun k -> opt64 (find !eng (Int64.of_int k)));
    put = (fun k v -> insert !eng (Int64.of_int k) (Int64.of_int v));
    del = (fun k -> remove !eng (Int64.of_int k));
  }

(* Every node reachable from the root (node layout in Workloads.Bptree:
   meta word bit 0 = leaf, count above it; children at +64). *)
let bt_nodes dev root =
  let acc = ref [] in
  let rec walk n =
    if n <> 0 then begin
      acc := n :: !acc;
      let meta = Int64.to_int (D.read_u64 dev n) in
      if meta land 1 = 0 then
        for i = 0 to meta lsr 1 do
          walk (Int64.to_int (D.read_u64 dev (n + 64 + (i * 8))))
        done
    end
  in
  walk root;
  !acc

let btree_cow ~seed =
  let eng = ref (ME.create ~latency:Pmem.Latency.optane ~size:bt_pool ()) in
  let dev = Pool_impl.device (ME.pool !eng) in
  let plain = bt_store BT.find BT.insert BT.remove eng in
  let traced = bt_store TBT.find TBT.insert TBT.remove eng in
  let g = Gen.tree ~seed ~nkeys:bt_nkeys in
  let c = client ~next:(fun () -> Gen.tree_next g) ~keys:(range 0 bt_nkeys) plain in
  Gen.tree_preload g (fun k v ->
      plain.put k v;
      Hashtbl.replace c.model k v);
  let reattach () =
    let s0 = D.simulated_ns dev in
    let t0 = now_ns () in
    let p = Pool_impl.attach dev in
    eng := ME.of_pool p;
    let t1 = now_ns () in
    { host_ns = t1 - t0; sim_ns = D.simulated_ns dev -. s0; stats = Pool_impl.recovery_stats p }
  in
  {
    name = "btree-cow";
    clients = [| c |];
    device = (fun () -> dev);
    pool = (fun () -> ME.pool !eng);
    set_traced = (fun on -> c.store <- (if on then traced else plain));
    ack_fence = true;
    reattach;
    verify =
      (fun () ->
        match BT.check !eng with
        | Error e -> Error ("Bptree.check: " ^ e)
        | Ok () ->
            let n = BT.size !eng in
            if n <> Hashtbl.length c.model then
              Error (Printf.sprintf "tree holds %d keys, model %d" n (Hashtbl.length c.model))
            else Ok ());
    leaks =
      (fun () ->
        let root = ME.transaction !eng ME.root in
        compare_reach (ME.pool !eng) (bt_nodes dev root));
    enter_domain = ignore;
    leave_domain = ignore;
  }

(* --- kv-shared: one pool, two registered domains, group commit ------------- *)

module CE = Engines.Corundum_engine
module KV = Workloads.Kvstore.Make (CE)
module TKV = Workloads.Kvstore.Make (Layers.Timed (CE))

let sh_domains = 2
let sh_nkeys = 10_000
let sh_churn = 512
let sh_buckets = 8192
let sh_base d = d * 1_000_000

let kv_store get put del kv =
  {
    get = (fun k -> opt64 (get !kv (Int64.of_int k)));
    put = (fun k v -> put !kv (Int64.of_int k) (Int64.of_int v));
    del = (fun k -> del !kv (Int64.of_int k));
  }

let kv_shared ~seed =
  let eng = ref (CE.create ~latency:Pmem.Latency.optane ()) in
  let dev = Pool_impl.device (CE.pool !eng) in
  let bind () =
    Pool_impl.set_group_commit (CE.pool !eng) true;
    (KV.create ~nbuckets:sh_buckets !eng, TKV.create ~nbuckets:sh_buckets !eng)
  in
  let kv, tkv =
    let a, b = bind () in
    (ref a, ref b)
  in
  let plain = kv_store KV.get KV.put KV.del kv in
  let traced = kv_store TKV.get TKV.put TKV.del tkv in
  let clients =
    Array.init sh_domains (fun d ->
        let base = sh_base d in
        let g = Gen.kv ~seed:(seed + (d * 7919)) ~base ~nkeys:sh_nkeys ~churn:sh_churn in
        let c =
          client ~next:(fun () -> Gen.kv_next g) ~keys:(range base (base + sh_nkeys + sh_churn))
            plain
        in
        Gen.kv_preload g (fun k v ->
            plain.put k v;
            Hashtbl.replace c.model k v);
        c)
  in
  let reattach () =
    let s0 = D.simulated_ns dev in
    let t0 = now_ns () in
    let p = Pool_impl.attach dev in
    eng := CE.of_pool p;
    let a, b = bind () in
    kv := a;
    tkv := b;
    let t1 = now_ns () in
    { host_ns = t1 - t0; sim_ns = D.simulated_ns dev -. s0; stats = Pool_impl.recovery_stats p }
  in
  let pool () = CE.pool !eng in
  {
    name = "kv-shared";
    clients;
    device = (fun () -> dev);
    pool;
    set_traced =
      (fun on -> Array.iter (fun c -> c.store <- (if on then traced else plain)) clients);
    ack_fence = false;
    reattach;
    verify =
      (fun () ->
        let n = KV.length !kv in
        let m = Array.fold_left (fun a c -> a + Hashtbl.length c.model) 0 clients in
        if n <> m then Error (Printf.sprintf "store holds %d keys, models %d" n m) else Ok ());
    leaks =
      (fun () ->
        let dir = CE.transaction !eng CE.root in
        let reach = ref [ dir ] in
        for b = 0 to sh_buckets - 1 do
          let rec chain e =
            if e <> 0 then begin
              reach := e :: !reach;
              chain (Int64.to_int (D.read_u64 dev (e + 16)))
            end
          in
          chain (Int64.to_int (D.read_u64 dev (dir + (b * 8))))
        done;
        compare_reach (pool ()) !reach);
    enter_domain = (fun () -> ignore (Pool_impl.register_domain (pool ())));
    leave_domain = (fun () -> Pool_impl.unregister_domain (pool ()));
  }

let all = [ ("kv-typed", kv_typed); ("btree-cow", btree_cow); ("kv-shared", kv_shared) ]
