(* Reproduction harness: one entry per table/figure of the paper's
   evaluation (Chapter 6), plus the ablations called out in DESIGN.md.

   Every experiment sweeps MPL for the three concurrency control algorithms
   (SI, Serializable SI, S2PL), printing throughput with 95% confidence
   intervals and the abort-rate breakdown (deadlock / FCW conflict / unsafe)
   that the paper shows as the paired (b) charts. Absolute numbers are
   simulated-time throughput; the claims under reproduction are the shapes
   (ordering, gaps, crossovers), recorded in EXPERIMENTS.md. *)

open Core

type budget = {
  seeds : int list;
  duration : float;
  warmup : float;
  mpls : int list;
  with_metrics : bool; (* collect engine metrics (Obs) per run *)
}

let full_budget =
  {
    seeds = [ 1; 2; 3 ];
    duration = 0.8;
    warmup = 0.15;
    mpls = [ 1; 2; 5; 10; 20; 50 ];
    with_metrics = false;
  }

let quick_budget =
  { seeds = [ 1 ]; duration = 0.25; warmup = 0.05; mpls = [ 1; 5; 20 ]; with_metrics = false }

let levels =
  [ ("SI", Types.Snapshot); ("SSI", Types.Serializable); ("S2PL", Types.S2pl) ]

type series = { label : string; points : Driver.summary list }

type figure = {
  fig_id : string;
  title : string;
  expected : string; (* the paper's qualitative result for this figure *)
  mpls : int list;
  series : series list;
}

(* {1 Workloads as data}

   The evaluation uses three workloads: SmallBank on the Berkeley DB
   profile, and sibench and TPC-C++ on the InnoDB profile. Every figure and
   ablation below is one of them with one setting changed: its own
   benchmark parameters (constructor arguments) or one engine switch (a
   record edit of [config]). [make_db] is the only place a figure's
   database is created. *)

type workload = {
  config : Config.t;
  setup : Db.t -> unit;  (** loads the initial rows *)
  mix : Driver.program list;
}

(* A fresh database for [w] on [sim]; [obs] is attached before loading. *)
let make_db ?obs w sim =
  let db = Db.create ~config:w.config sim in
  Option.iter (Db.set_obs db) obs;
  w.setup db;
  db

let with_config f w = { w with config = f w.config }

(* SmallBank (§5.1) on the Berkeley DB profile. *)
let smallbank ?(customers = 20_000) ?ops_per_txn ?fix () =
  {
    config = Config.bdb ();
    setup = (fun db -> Smallbank.setup db ~customers ());
    mix = Smallbank.mix ?fix ~customers ?ops_per_txn ();
  }

(* sibench (§5.2) on the InnoDB profile. *)
let sibench ~items ?queries_per_update () =
  {
    config = Config.innodb ();
    setup = (fun db -> Sibench.setup db ~items ());
    mix = Sibench.mix ~items ?queries_per_update ();
  }

(* TPC-C++ (§5.3) on the InnoDB profile; [stock_level] selects the Stock
   Level mix. *)
let tpcc ?skip_ytd ?(stock_level = false) scale =
  {
    config = Config.innodb ();
    setup = (fun db -> Tpcc.setup db ~scale ());
    mix = (if stock_level then Tpcc.stock_level_mix scale else Tpcc.mix ?skip_ytd scale);
  }

(* The workloads of Figs 6.1, 6.7 and 6.12, which the single-run
   subcommands also name (Scenario.registry). *)
let fig6_1_workload = smallbank ()
let fig6_7_workload = sibench ~items:100 ()
let fig6_12_workload = tpcc ~skip_ytd:true (Tpcc.standard ~warehouses:1)

(* {1 Plans: figures as data, evaluated as one parallel batch}

   A [plan] is a figure whose measurement points have not run yet: each
   series is a label plus a closure from budget and MPL to a summary, so
   building a plan runs nothing. [eval_plans] flattens every (figure,
   series, MPL) point of a whole batch of plans into one job list for the
   domain pool — points parallelise within a sweep *and* across figures —
   and re-assembles the results in submission order, so the printed tables
   are byte-identical to a sequential run.

   The point closures must not touch the pool themselves (nested
   submission is rejected); each builds its own simulated world via
   [Driver.run_seeds]/[Driver.run_once]. *)

type plan = {
  pl_id : string;
  pl_title : string;
  pl_expected : string;
  pl_series : (string * (budget -> int -> Driver.summary)) list; (* label, point *)
}

let eval_plans ?pool ~(budget : budget) (plans : plan list) : figure list =
  let jobs =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun (_, point) -> List.map (fun mpl () -> point budget mpl) budget.mpls)
          p.pl_series)
      plans
  in
  let results = ref (Par.map ?pool (fun job -> job ()) jobs) in
  let take n =
    let rec go n acc =
      if n = 0 then List.rev acc
      else
        match !results with
        | [] -> invalid_arg "eval_plans: job/result mismatch"
        | r :: rest ->
            results := rest;
            go (n - 1) (r :: acc)
    in
    go n []
  in
  List.map
    (fun p ->
      {
        fig_id = p.pl_id;
        title = p.pl_title;
        expected = p.pl_expected;
        mpls = budget.mpls;
        series =
          List.map
            (fun (label, _) -> { label; points = take (List.length budget.mpls) })
            p.pl_series;
      })
    plans

(* The Berkeley DB profile's 0.5s periodic deadlock detector makes S2PL
   results meaningless on sub-second windows, so points on that profile
   measure for at least 1.5s. *)
let window (b : budget) (c : Config.t) =
  match c.Config.detection with
  | Lockmgr.Periodic _ ->
      { b with duration = Float.max b.duration 1.5; warmup = Float.max b.warmup 0.25 }
  | Lockmgr.Immediate -> b

(* One measurement point: [run_seeds] over the budget's seed list. *)
let point ~isolation w budget mpl =
  let budget = window budget w.config in
  Driver.run_seeds ~with_metrics:budget.with_metrics ~make_db:(make_db w) ~mix:w.mix
    ~seeds:budget.seeds
    {
      Driver.default_config with
      Driver.isolation;
      mpl;
      warmup = budget.warmup;
      duration = budget.duration;
    }

let figure ~id ~title ~expected series =
  { pl_id = id; pl_title = title; pl_expected = expected; pl_series = series }

(* [w] under SI, SSI and S2PL. *)
let by_level w = List.map (fun (label, isolation) -> (label, point ~isolation w)) levels

(* Labelled engine variants of [w], each run at SSI. *)
let by_config w variants =
  List.map
    (fun (label, edit) -> (label, point ~isolation:Types.Serializable (with_config edit w)))
    variants

let print_figure fmt f =
  Fmt.pf fmt "@.=== %s: %s ===@." f.fig_id f.title;
  Fmt.pf fmt "paper: %s@." f.expected;
  (* throughput table *)
  Fmt.pf fmt "@.%-6s" "MPL";
  List.iter (fun s -> Fmt.pf fmt "%22s" (s.label ^ " tps (±95%)")) f.series;
  Fmt.pf fmt "@.";
  List.iteri
    (fun i mpl ->
      Fmt.pf fmt "%-6d" mpl;
      List.iter
        (fun s ->
          let p = List.nth s.points i in
          Fmt.pf fmt "%15.0f ±%5.0f" p.Driver.s_throughput p.Driver.s_ci)
        f.series;
      Fmt.pf fmt "@.")
    f.mpls;
  (* abort-rate table (the paper's (b) charts), % of commits *)
  Fmt.pf fmt "@.%-6s" "MPL";
  List.iter
    (fun s -> Fmt.pf fmt "  %30s" (s.label ^ " dl/conf/unsafe% (locks)"))
    f.series;
  Fmt.pf fmt "@.";
  List.iteri
    (fun i mpl ->
      Fmt.pf fmt "%-6d" mpl;
      List.iter
        (fun s ->
          let p = List.nth s.points i in
          Fmt.pf fmt "  %6.2f/%6.2f/%6.2f (%5.0f)"
            (100.0 *. p.Driver.s_deadlock_rate)
            (100.0 *. p.Driver.s_conflict_rate)
            (100.0 *. p.Driver.s_unsafe_rate)
            p.Driver.s_lock_table)
        f.series;
      Fmt.pf fmt "@.")
    f.mpls;
  (* engine-metrics table (budget.with_metrics): rw-edge counts by detection
     source plus lock-wait and retained-record pressure, per series/MPL *)
  let has_metrics =
    List.exists (fun s -> List.exists (fun p -> p.Driver.s_metrics <> None) s.points) f.series
  in
  if has_metrics then begin
    Fmt.pf fmt "@.%-6s" "MPL";
    List.iter
      (fun s -> Fmt.pf fmt "  %44s" (s.label ^ " edges nv/sx/ps/gap/uw doom wait ret"))
      f.series;
    Fmt.pf fmt "@.";
    List.iteri
      (fun i mpl ->
        Fmt.pf fmt "%-6d" mpl;
        List.iter
          (fun s ->
            let p = List.nth s.points i in
            match p.Driver.s_metrics with
            | None -> Fmt.pf fmt "  %44s" "-"
            | Some m ->
                Fmt.pf fmt "  %8d/%d/%d/%d/%d %6d %8.2gs %7d"
                  m.Obs.m_conflict_newer_version m.Obs.m_conflict_siread_x
                  m.Obs.m_conflict_page_stamp m.Obs.m_conflict_gap m.Obs.m_conflict_unknown
                  m.Obs.m_doomed
                  (Obs.hist_mean m.Obs.m_lock_wait)
                  m.Obs.m_retained_hwm)
          f.series;
        Fmt.pf fmt "@.")
      f.mpls
  end


(* {1 Berkeley DB / SmallBank experiments (§6.1)} *)

let flushed =
  with_config (fun c -> { c with Config.wal_mode = Wal.Flush_per_commit 0.01 })

let fig6_1 =
  figure ~id:"fig6.1" ~title:"Berkeley DB SmallBank, no log flush (throughput vs MPL)"
    ~expected:
      "SI and SSI track each other and far exceed S2PL (~10x at MPL 20); S2PL errors are \
       deadlocks, SSI adds unsafe aborts"
    (by_level fig6_1_workload)

let fig6_2 =
  figure ~id:"fig6.2" ~title:"Berkeley DB SmallBank, log flushed at commit"
    ~expected:
      "I/O-bound: throughput rises with MPL via group commit; levels close until S2PL's \
       deadlock stalls bite at high MPL"
    (by_level (flushed (smallbank ())))

let fig6_3 =
  figure ~id:"fig6.3" ~title:"Berkeley DB SmallBank, complex transactions (10 ops), log flush"
    ~expected:"still I/O-bound; results mirror Fig 6.2 though each txn does 10x the work"
    (by_level (flushed (smallbank ~ops_per_txn:10 ())))

let fig6_4 =
  figure ~id:"fig6.4" ~title:"Berkeley DB SmallBank, 1/10th contention (10x accounts), log flush"
    ~expected:
      "S2PL and SI nearly identical; SSI 10-15% below due to page-level false positives \
       (higher unsafe rate than true conflicts would justify)"
    (by_level (flushed (smallbank ~customers:200_000 ())))

let fig6_5 =
  figure ~id:"fig6.5" ~title:"Berkeley DB SmallBank, complex transactions + low contention"
    ~expected:"like Fig 6.4 with 10x work per txn; SSI overhead stays in the 10-15% band"
    (by_level (flushed (smallbank ~customers:200_000 ~ops_per_txn:10 ())))

(* {1 InnoDB / sibench experiments (§6.3)} *)

let sibench_title ~items ~queries_per_update =
  Printf.sprintf "InnoDB sibench, %d items, %d quer%s per update" items queries_per_update
    (if queries_per_update = 1 then "y" else "ies")

let sibench_fig ~id ~items ~queries_per_update ~expected =
  figure ~id
    ~title:(sibench_title ~items ~queries_per_update)
    ~expected
    (by_level (sibench ~items ~queries_per_update ()))

let fig6_6 =
  sibench_fig ~id:"fig6.6" ~items:10 ~queries_per_update:1
    ~expected:"small table: updates serialise on hot rows; SI and SSI equal, S2PL below (readers \
               block writers)"

let fig6_7 =
  figure ~id:"fig6.7"
    ~title:(sibench_title ~items:100 ~queries_per_update:1)
    ~expected:"SI and SSI still close; S2PL clearly below" (by_level fig6_7_workload)

let fig6_8 =
  sibench_fig ~id:"fig6.8" ~items:1000 ~queries_per_update:1
    ~expected:"1000-row scans: SSI pays per-row SIREAD costs through the single-threaded lock \
               manager and falls below SI; S2PL worst"

let fig6_9 =
  sibench_fig ~id:"fig6.9" ~items:10 ~queries_per_update:10
    ~expected:"query-mostly, 10 items: all levels closer; S2PL still pays read locking"

let fig6_10 =
  sibench_fig ~id:"fig6.10" ~items:100 ~queries_per_update:10
    ~expected:"query-mostly, 100 items: SI ahead; SSI between SI and S2PL"

let fig6_11 =
  sibench_fig ~id:"fig6.11" ~items:1000 ~queries_per_update:10
    ~expected:"query-mostly, 1000 items: lock-manager traffic dominates; SI >> SSI > S2PL"

(* {1 InnoDB / TPC-C++ experiments (§6.4)} *)

(* The larger-data configurations are I/O bound (§6.4.1). *)
let io_bound = with_config (fun c -> { c with Config.read_miss = 0.05 })

let fig6_12 =
  figure ~id:"fig6.12" ~title:"TPC-C++ 1 warehouse, skipping year-to-date updates"
    ~expected:
      "in-memory, one warehouse: SI and SSI within ~10%; S2PL lower once MPL grows (SLEV/OSTAT \
       read locks block NEWO)"
    (by_level fig6_12_workload)

let fig6_13 =
  figure ~id:"fig6.13" ~title:"TPC-C++ 10 warehouses (larger data volume)"
    ~expected:
      "I/O-bound: all three algorithms nearly indistinguishable; throughput rises with MPL as \
       the disk pipeline fills"
    (by_level (io_bound (tpcc (Tpcc.standard ~warehouses:10))))

let fig6_14 =
  figure ~id:"fig6.14" ~title:"TPC-C++ 10 warehouses, skipping ytd updates"
    ~expected:"still I/O-bound; skipping the ytd hotspots changes little at this scale"
    (by_level (io_bound (tpcc ~skip_ytd:true (Tpcc.standard ~warehouses:10))))

let fig6_15 =
  figure ~id:"fig6.15" ~title:"TPC-C++ 10 warehouses, tiny data scaling (high contention)"
    ~expected:
      "in-memory and contended: SI and SSI stay close; S2PL falls behind as blocking grows; SSI \
       unsafe aborts visible but small"
    (by_level (tpcc (Tpcc.tiny ~warehouses:10)))

let fig6_16 =
  figure ~id:"fig6.16" ~title:"TPC-C++ tiny scaling, skipping ytd updates"
    ~expected:"removing the Payment ytd hotspot lifts SI/SSI further above S2PL"
    (by_level (tpcc ~skip_ytd:true (Tpcc.tiny ~warehouses:10)))

let fig6_17 =
  figure ~id:"fig6.17" ~title:"TPC-C++ Stock Level mix, 10 warehouses"
    ~expected:
      "read-mostly mix dominated by large scans: multiversioning wins; S2PL's read locks on \
       stock rows block New Order"
    (by_level (io_bound (tpcc ~stock_level:true (Tpcc.standard ~warehouses:10))))

let fig6_18 =
  figure ~id:"fig6.18" ~title:"TPC-C++ Stock Level mix, tiny scaling"
    ~expected:
      "in-memory scans: SI clearly ahead of SSI (per-row SIREAD cost), S2PL worst — the \
       sibench 100-item regime writ large"
    (by_level (tpcc ~stock_level:true (Tpcc.tiny ~warehouses:10)))

(* {1 Ablations (§3.6, §3.7, §2.8.5)} *)

(* Basic vs precise SSI: false-positive rate and throughput (§3.6). High
   contention (few accounts) so that unsafe aborts are frequent enough to
   show the difference. *)
let ablation_precise =
  figure ~id:"ablation-precise"
    ~title:"SSI basic flags (§3.2) vs precise conflict references (§3.6), SmallBank"
    ~expected:
      "precise mode (conflict references + commit-time tests) has a lower unsafe rate than the \
       boolean flags at equal or better throughput"
    (by_config (smallbank ~customers:1_000 ())
       [
         ("SSI-basic", fun c -> { c with Config.ssi = Config.Basic });
         ("SSI-precise", fun c -> { c with Config.ssi = Config.Precise });
       ])

(* SIREAD upgrade (§3.7.3) on/off. *)
let ablation_upgrade =
  figure ~id:"ablation-upgrade"
    ~title:"SIREAD->X upgrade optimisation (§3.7.3) on vs off, SmallBank SSI"
    ~expected:
      "upgrade reduces retained locks and suspended transactions; throughput equal or better"
    (by_config (smallbank ())
       [
         ("upgrade-on", fun c -> { c with Config.upgrade_siread = true });
         ("upgrade-off", fun c -> { c with Config.upgrade_siread = false });
       ])

(* The §2.8.5 static fixes under plain SI vs Serializable SI: the
   alternative the paper's approach replaces (cf. Alomari et al. 2008). *)
let ablation_fixes =
  figure ~id:"ablation-fixes"
    ~title:"Making SmallBank serializable: static fixes at SI vs Serializable SI (§2.8.5)"
    ~expected:
      "which fix wins is platform-dependent (Alomari 2008): here promotion beats \
       materialization (as on PostgreSQL) and PromoteBW adds the most conflicts (it turns the \
       read-only Bal into an update); SSI is competitive with the best fix without any \
       application change"
    (List.map
       (fun (label, isolation, fix) -> (label, point ~isolation (smallbank ~fix ())))
       [
         ("SSI", Types.Serializable, Smallbank.No_fix);
         ("SI+MatWT", Types.Snapshot, Smallbank.Materialize_wt);
         ("SI+PromWT", Types.Snapshot, Smallbank.Promote_wt);
         ("SI+MatBW", Types.Snapshot, Smallbank.Materialize_bw);
         ("SI+PromBW", Types.Snapshot, Smallbank.Promote_bw);
       ])

(* Kernel-mutex (single-threaded lock manager) ablation for the §6.3
   bottleneck analysis. *)
let ablation_lock_mutex =
  figure ~id:"ablation-mutex" ~title:"InnoDB kernel mutex on/off, sibench 1000 items, SSI"
    ~expected:
      "serialised lock manager caps SSI scan throughput (§6.3); removing it recovers most of \
       the gap to SI"
    (by_config (sibench ~items:1000 ())
       [
         ("mutex-on", fun c -> { c with Config.lock_mutex = true });
         ("mutex-off", fun c -> { c with Config.lock_mutex = false });
       ])

(* A summary row for the custom-loop figures below, which measure only
   throughput, the unsafe rate and one gauge (in the "(locks)" column). *)
let loop_summary ~mpl ~tps ~unsafe_rate ~gauge =
  let m, ci = Stats.ci95 tps in
  {
    Driver.s_mpl = mpl;
    s_throughput = m;
    s_ci = ci;
    s_deadlock_rate = 0.0;
    s_conflict_rate = 0.0;
    s_unsafe_rate = unsafe_rate;
    s_user_abort_rate = 0.0;
    s_mean_response = 0.0;
    s_lock_table = gauge;
    s_metrics = None;
  }

(* Mixed mode (§3.8): read-only queries at plain SI alongside SSI updates.
   The driver applies one isolation level per run; mixed mode is driven by
   a custom client loop instead. *)
let ablation_mixed =
  let w = sibench ~items:1000 () in
  let run_mixed budget ~queries_at mpl seed =
    let sim = Sim.create () in
    let db = make_db w sim in
    let commits = ref 0 in
    let horizon = budget.warmup +. budget.duration in
    for client = 1 to mpl do
      Sim.spawn sim (fun () ->
          let st = Random.State.make [| seed; client |] in
          let rec loop () =
            if Sim.now sim < horizon then begin
              let query = Random.State.bool st in
              let isolation = if query then queries_at else Types.Serializable in
              let body t =
                if query then ignore (Sibench.query t) else Sibench.update ~items:1000 st t
              in
              (match Db.run db isolation body with
              | Ok () -> if Sim.now sim >= budget.warmup then incr commits
              | Error _ -> ());
              loop ()
            end
          in
          loop ())
    done;
    Sim.run ~until:horizon sim;
    float_of_int !commits /. budget.duration
  in
  let mixed_point queries_at budget mpl =
    loop_summary ~mpl
      ~tps:(List.map (run_mixed budget ~queries_at mpl) budget.seeds)
      ~unsafe_rate:0.0 ~gauge:0.0
  in
  figure ~id:"ablation-mixed"
    ~title:"Queries at plain SI mixed with SSI updates (§3.8), sibench 1000"
    ~expected:
      "running read-only queries at SI removes their SIREAD overhead and unsafe aborts; total \
       throughput improves"
    [
      ("queries@SSI", mixed_point Types.Serializable);
      ("queries@SI", mixed_point Types.Snapshot);
    ]

(* Read-only snapshot refinement (extension) on/off: high-contention
   SmallBank, where Bal is a declared read-only query. Precise mode: the
   refinement extends the conflict-reference tests. *)
let ablation_ro =
  figure ~id:"ablation-ro"
    ~title:"Read-only snapshot refinement on/off, SmallBank SSI (extension)"
    ~expected:
      "pivots whose incoming neighbour is a declared read-only Bal that began before T_out \
       committed are spared: lower unsafe rate at equal or better throughput"
    (by_config (smallbank ~customers:1_000 ())
       [
         ( "refinement-off",
           fun c -> { c with Config.ssi = Config.Precise; ro_refinement = false } );
         ("refinement-on", fun c -> { c with Config.ssi = Config.Precise; ro_refinement = true });
       ])

(* {1 Bounded-memory SIREAD retention (§4.8 extension)}

   A pinned read-only snapshot keeps the oldest-active-snapshot watermark
   from reclaiming anything, so unbounded SSI retention (§4.8) grows with
   every commit for as long as the pin holds. [Config.memory_budget] caps
   it with row->page promotion and committed-transaction summarization, at
   the price of conservative (false-positive) unsafe aborts. The driver
   applies one isolation level per run and has no pinned client, so this
   workload's clients are the custom loop in [retention_run] and its mix is
   empty. *)

let retention_keys = 256
let retention_key i = Printf.sprintf "k%03d" i

let retention ?memory_budget () =
  {
    config =
      {
        (Config.innodb ~wal_mode:Wal.No_flush ()) with
        Config.lock_mutex = false;
        memory_budget;
        promote_threshold = 4;
      };
    setup =
      (fun db ->
        ignore (Db.create_table db "t");
        Db.load db "t" (List.init retention_keys (fun i -> (retention_key i, "0"))));
    mix = [];
  }

type retention_counts = {
  rc_commits : int;  (** after warmup *)
  rc_unsafe : int;  (** unsafe aborts after warmup *)
  rc_hwm : int;  (** high-water mark of retained records + live SIREAD entries *)
}

(* One run of the retention loop at SSI: a read-only snapshot reads 8 keys
   and holds until [pin_release] (default: past the horizon), while [mpl]
   clients each read one random key and write another. [obs] is attached
   before loading. *)
let retention_run ?obs ?memory_budget ?pin_release ~mpl ~warmup ~duration seed =
  let sim = Sim.create () in
  let db = make_db ?obs (retention ?memory_budget ()) sim in
  let key = retention_key in
  let horizon = warmup +. duration in
  Sim.spawn sim (fun () ->
      ignore
        (Db.run db Types.Serializable (fun t ->
             for i = 0 to 7 do
               ignore (Txn.read t "t" (key i))
             done;
             Sim.delay sim
               (match pin_release with Some r -> r -. Sim.now sim | None -> horizon))));
  let commits = ref 0 and unsafe = ref 0 and hwm = ref 0 in
  for client = 1 to mpl do
    Sim.spawn sim (fun () ->
        let st = Random.State.make [| seed; client |] in
        let rec loop () =
          if Sim.now sim < horizon then begin
            let r = key (Random.State.int st retention_keys) in
            let w = key (Random.State.int st retention_keys) in
            (match
               Db.run db Types.Serializable (fun t ->
                   ignore (Txn.read t "t" r);
                   Txn.write t "t" w "1")
             with
            | Ok () -> if Sim.now sim >= warmup then incr commits
            | Error Types.Unsafe -> if Sim.now sim >= warmup then incr unsafe
            | Error _ -> ());
            hwm := max !hwm (Db.retained_count db + Db.siread_entry_count db);
            loop ()
          end
        in
        loop ())
  done;
  Sim.run ~until:horizon sim;
  if not (Db.work_conserved db) then failwith "retention_run: wasted-work conservation violated";
  { rc_commits = !commits; rc_unsafe = !unsafe; rc_hwm = !hwm }

(* The pin holds for the whole window; the "(locks)" column reports the
   retained-records + live-SIREAD-entries high-water mark. *)
let ablation_retention =
  let bounded_point memory_budget budget mpl =
    let runs =
      List.map
        (retention_run ?memory_budget ~mpl ~warmup:budget.warmup ~duration:budget.duration)
        budget.seeds
    in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
    let commits = sum (fun r -> r.rc_commits) in
    loop_summary ~mpl
      ~tps:(List.map (fun r -> float_of_int r.rc_commits /. budget.duration) runs)
      ~unsafe_rate:
        (if commits > 0 then float_of_int (sum (fun r -> r.rc_unsafe)) /. float_of_int commits
         else 0.0)
      ~gauge:(float_of_int (List.fold_left (fun acc r -> max acc r.rc_hwm) 0 runs))
  in
  figure ~id:"retention-budget"
    ~title:"SIREAD retention under a pinned snapshot: unbounded vs memory budget 256"
    ~expected:
      "unbounded retention grows with every commit while the pin holds (the lock column is the \
       retained+SIREAD high-water mark, far above MPL); the budget caps it near 256 via \
       promotion and summarization, costing a modest rise in conservative unsafe aborts at \
       similar throughput"
    [ ("unbounded", bounded_point None); ("budget=256", bounded_point (Some 256)) ]

(* Real LRU buffer pool vs the probabilistic read_miss model on the
   I/O-bound TPC-C++ configuration of Fig 6.13 — validating the DESIGN.md
   substitution. *)
let ablation_bufferpool =
  let w = tpcc (Tpcc.standard ~warehouses:10) in
  let pool pages c = { c with Config.buffer_pool = Some pages } in
  figure ~id:"ablation-bufferpool"
    ~title:"TPC-C++ 10 warehouses: probabilistic miss model vs real LRU buffer pool"
    ~expected:
      "a pool smaller than the hot set is I/O bound and thrashes as MPL grows (locality \
       dynamics the flat read_miss model cannot show); a pool covering the hot set recovers \
       in-memory throughput — validating the DESIGN.md substitution for Fig 6.13"
    (by_config
       {
         w with
         setup =
           (fun db ->
             w.setup db;
             Db.prewarm_cache db);
       }
       [
         ("read-miss 5%", fun c -> { c with Config.read_miss = 0.05 });
         ("LRU small", pool 2_500);
         ("LRU big", pool 200_000);
       ])

(* {1 Registry} *)

let all_figures =
  [
    fig6_1;
    fig6_2;
    fig6_3;
    fig6_4;
    fig6_5;
    fig6_6;
    fig6_7;
    fig6_8;
    fig6_9;
    fig6_10;
    fig6_11;
    fig6_12;
    fig6_13;
    fig6_14;
    fig6_15;
    fig6_16;
    fig6_17;
    fig6_18;
    ablation_precise;
    ablation_upgrade;
    ablation_fixes;
    ablation_lock_mutex;
    ablation_mixed;
    ablation_bufferpool;
    ablation_ro;
    ablation_retention;
  ]

let find_figure id = List.find_opt (fun p -> p.pl_id = id) all_figures

(* Run a batch of experiments: every (figure, series, MPL) point across
   all requested ids is submitted to the pool as one flat job list, then
   the figures print in request order — identical bytes to a sequential
   run, arbitrary parallelism across sweeps and figures. *)
let run_many ?pool ?(budget = full_budget) fmt ids =
  let items = List.map (fun id -> (id, find_figure id)) ids in
  let figures = ref (eval_plans ?pool ~budget (List.filter_map snd items)) in
  List.iter
    (fun (id, plan) ->
      match plan with
      | None -> Fmt.pf fmt "unknown experiment %s@." id
      | Some _ -> (
          match !figures with
          | f :: rest ->
              figures := rest;
              print_figure fmt f
          | [] -> assert false))
    items
