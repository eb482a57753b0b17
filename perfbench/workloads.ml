(* The three workloads of the benchmark. Each one fixes the engine profile,
   the bulk load and the transaction mix; the seed only reaches the driver's
   per-client random streams. *)

open Core

type t = {
  name : string;
  config : Config.t;
  setup : Db.t -> unit;  (** bulk load (and buffer-pool prewarm) *)
  mix : Driver.program list;
  tables : string list;
  sim_seconds : float;  (** simulated length of one run *)
  exact_runs : int;
      (** runs per isolation level that every benchmark run makes, each on
          its own driver seed; the allocation counts come from them *)
  check : Db.t -> Driver.result -> (unit, string) result;
      (** workload-specific correctness of the final state *)
}

let sibench_items = 100

let smallbank_customers = 20_000

let tpcc_scale = Tpcc.standard ~warehouses:10

(* Every committed update adds exactly one to the table's sum. The driver
   counts commits only inside its window, so the window is the whole run
   (warmup 0) and an update that commits exactly at the horizon would show
   here as a mismatch. *)
let check_sibench db (r : Driver.result) =
  let updates = try List.assoc "update" r.Driver.per_program with Not_found -> 0 in
  let expected = Sibench.initial_total ~items:sibench_items + updates in
  let got = Sibench.total db in
  if got = expected then Ok ()
  else Error (Printf.sprintf "sibench total %d, expected %d (%d committed updates)" got expected updates)

let check_tpcc db _ =
  match
    Tpcc.check_consistency db ~scale:tpcc_scale;
    Tpcc.check_ytd db ~scale:tpcc_scale
  with
  | () -> Ok ()
  | exception Tpcc.Inconsistent msg -> Error ("tpcc: " ^ msg)

let all =
  [
    {
      name = "sibench-scan";
      config = Config.innodb ();
      setup = (fun db -> Sibench.setup db ~items:sibench_items ());
      mix = Sibench.mix ~items:sibench_items ~queries_per_update:1 ();
      tables = [ Sibench.table ];
      sim_seconds = 2.0;
      exact_runs = 5;
      check = check_sibench;
    };
    {
      name = "smallbank-point";
      config = Config.bdb ();
      setup = (fun db -> Smallbank.setup db ~customers:smallbank_customers ());
      mix = Smallbank.mix ~customers:smallbank_customers ();
      tables = Smallbank.[ account; saving; checking; conflict ];
      sim_seconds = 0.4;
      exact_runs = 2;
      check = (fun _ _ -> Ok ());
    };
    {
      name = "tpcc-lru";
      config = { (Config.innodb ()) with Config.buffer_pool = Some 2_500 };
      setup =
        (fun db ->
          Tpcc.setup db ~scale:tpcc_scale ();
          Db.prewarm_cache db);
      mix = Tpcc.mix tpcc_scale;
      tables = Tpcc.all_tables;
      sim_seconds = 10.0;
      exact_runs = 3;
      check = check_tpcc;
    };
  ]

(* The driver seed of round [j] of benchmark seed [seed]. *)
let sub_seed seed j = (seed * 100) + j

let find name = List.find_opt (fun w -> w.name = name) all
