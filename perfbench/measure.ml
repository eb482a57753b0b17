(* One measured run of a workload under one isolation level: wall time and
   minor-heap allocation of the simulation, with the bulk load timed apart,
   plus the correctness checks every run must pass. *)

open Core

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let mpl = 20

let isolations = [ ("s2pl", Types.S2pl); ("si", Types.Snapshot); ("ssi", Types.Serializable) ]

(* Host-speed probe: a fixed piece of the benchmark's own work (string
   hashing, table lookups, list sorting). The speed of one core of a shared
   host drifts by up to 1.7x over seconds and the probe drifts with it, so
   [wall *. reference_probe /. probe] is roughly the wall time a run would
   have taken on the host at the probe's reference speed. [probe] collects
   the heap first, so that it does no collection work left by a run. *)
let probe_work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 19_999 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 20_011)) i
  done;
  let s = ref 0 in
  for i = 0 to 39_999 do
    match Hashtbl.find_opt h (string_of_int (i mod 20_011)) with Some v -> s := !s + v | None -> ()
  done;
  !s + List.length (List.sort compare (List.init 20_000 (fun i -> i * 31 mod 997)))

let reference_probe = 0.025

(* Seconds the probe takes: the median of three. *)
let probe () =
  Gc.compact ();
  let time () =
    let t0 = now () in
    ignore (Sys.opaque_identity (probe_work ()));
    now () -. t0
  in
  let a = time () in
  let b = time () in
  let c = time () in
  max (min a b) (min (max a b) c)

(* The simulated outcome: what the reproduction reports, and what must not
   move with the implementation. *)
type outcome = {
  commits : int;
  user_aborts : int;
  deadlocks : int;
  conflicts : int;
  unsafe : int;
  other : int;
}

let outcome_of (r : Driver.result) =
  {
    commits = r.Driver.commits;
    user_aborts = r.user_aborts;
    deadlocks = r.deadlocks;
    conflicts = r.conflicts;
    unsafe = r.unsafe;
    other = r.other_aborts;
  }

let error_aborts o = o.deadlocks + o.conflicts + o.unsafe + o.other

let attempts o = o.commits + error_aborts o

let outcome_to_string o =
  Printf.sprintf "commits=%d user=%d deadlock=%d fcw=%d unsafe=%d other=%d" o.commits o.user_aborts
    o.deadlocks o.conflicts o.unsafe o.other

(* What the bulk load left behind, sampled at the end of [make_db], so that
   whole-run counters can be reported for the simulated run alone. *)
type at_setup = {
  s_wall : float;
  s_words : float;
  s_wal_bytes : int;
  s_wal_appends : int;
  s_wal_flushes : int;
  s_cpu_uses : int;
  s_cpu_busy : float;
}

type run = {
  outcome : outcome;
  result : Driver.result;
  db : Db.t;
  setup : at_setup;
  wall : float;  (** seconds of simulation, set-up excluded *)
  words : float;  (** minor words allocated by the simulation *)
  promoted : float;
  major_collections : int;
  errors : string list;  (** failed correctness checks *)
}

(* [prepare] runs on the fresh database before the bulk load (tracing
   hooks); [record_history] logs the committed history for the MVSG check. *)
let run_once ?obs ?(record_history = false) ?(prepare = fun _ -> ()) ?(mpl = mpl)
    (w : Workloads.t) (_, iso) ~seed =
  let setup = ref None in
  let make_db sim =
    let t0 = now () and w0 = Gc.minor_words () in
    let config = { w.Workloads.config with Config.record_history } in
    let db = Db.create ~config sim in
    prepare db;
    w.setup db;
    let wal = Db.wal db and cpu = Db.cpu db in
    let s_words = Gc.minor_words () -. w0 in
    setup :=
      Some
        ( db,
          {
            s_wall = now () -. t0;
            s_words;
            s_wal_bytes = Wal.durable_bytes wal;
            s_wal_appends = Wal.appends wal;
            s_wal_flushes = Wal.flushes wal;
            s_cpu_uses = Resource.acquisitions cpu;
            s_cpu_busy = Resource.busy_time cpu;
          } );
    db
  in
  let cfg =
    {
      Driver.default_config with
      Driver.isolation = iso;
      mpl;
      warmup = 0.0;
      duration = w.sim_seconds;
      seed;
    }
  in
  Gc.compact ();
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let result = Driver.run_once ?obs ~make_db ~mix:w.mix cfg in
  let t1 = now () in
  let words = Gc.minor_words () -. w0 in
  let stat = Gc.quick_stat () in
  let promoted = stat.Gc.promoted_words -. p0 in
  let majors = stat.Gc.major_collections - majors0 in
  let db, s = Option.get !setup in
  let errors =
    (if Db.work_conserved db then [] else [ "wasted-work ledger out of balance" ])
    @ match w.check db result with Ok () -> [] | Error e -> [ e ]
  in
  {
    outcome = outcome_of result;
    result;
    db;
    setup = s;
    wall = t1 -. t0 -. s.s_wall;
    words = words -. s.s_words;
    promoted;
    major_collections = majors;
    errors;
  }
