(* Per-layer ledger (--trace 1). For each isolation level: one untraced
   run (wall and GC counts), then one traced run whose recorded streams are
   replayed layer by layer (Replay). Counts come from the layers' public
   getters after the traced run; times from the replays. SSI also gets the
   zero-cost-when-off probe and the MPL 5 / MPL 40 sensitivity counts. The
   traced runs take no part in the end-to-end numbers. *)

open Core

let per_txn commits n = float_of_int n /. float_of_int (max 1 commits)

(* The recording side of a traced run: a trace-and-metrics sink on the
   driver, the committed history, and a footprint hook that keeps each
   attempt's distinct row reads. The hook is removed from the lock manager
   again, whose acquisitions the trace already carries. *)
let traced_run ?(mpl = Measure.mpl) ?(record = true) w level ~seed =
  let obs = Obs.create ~trace:true ~metrics:true () in
  let reads = ref [] in
  let seen = Hashtbl.create 4096 in
  let prepare db =
    if record then begin
      Db.set_on_touch db
        (Some
           (fun id is_write resource ->
             if String.length resource > 2 && String.sub resource 0 2 = "r/" then
               if not (Hashtbl.mem seen (id, resource)) then begin
                 Hashtbl.replace seen (id, resource) ();
                 if not is_write then reads := (id, resource) :: !reads
               end));
      Lockmgr.set_on_touch (Db.locks db) None
    end
  in
  let run = Measure.run_once ~obs ~record_history:record ~prepare ~mpl w level ~seed in
  (run, obs, Array.of_list (List.rev !reads))

let holders_after iso mode = iso = Types.Serializable && mode <> Lockmgr.S

let level_ledger (w : Workloads.t) ((iso_name, iso) as level) ~seed =
  let u_probe = Measure.probe () in
  let u = Measure.run_once w level ~seed in
  let t_probe = Measure.probe () in
  let t, obs, reads = traced_run w level ~seed in
  let commits = t.outcome.commits in
  let db = t.db in
  let errors =
    List.map (Printf.sprintf "%s %s untraced: %s" w.name iso_name) u.errors
    @ Reference.check ~workload:w.name ~seed ~iso:iso_name u.outcome
    @ List.map (Printf.sprintf "%s %s traced: %s" w.name iso_name) t.errors
    @
    if t.outcome <> u.outcome then
      [
        Printf.sprintf "%s %s: traced outcome %s differs from untraced %s" w.name iso_name
          (Measure.outcome_to_string t.outcome) (Measure.outcome_to_string u.outcome);
      ]
    else []
  in
  let history = Db.history db in
  let serializable, mvsg_s = Replay.check_history history in
  let errors =
    if iso = Types.Serializable && not serializable then
      errors @ [ w.name ^ " ssi: committed history is not serializable" ]
    else errors
  in
  (* Replay times, like the untraced run's wall, are scaled to the probe's
     reference host speed (Measure.probe). *)
  let scale = Measure.reference_probe /. Measure.probe () in
  (* Lock manager. *)
  let locks = Db.locks db in
  let lr = Replay.replay_locks ~holders_after:(holders_after iso) (Replay.lock_ops obs) in
  (* Version store and B+tree. *)
  let snapshots = Hashtbl.create 1024 in
  List.iter (fun (h : Types.committed_record) -> Hashtbl.replace snapshots h.h_id h.h_snapshot) history;
  let newest = Db.last_commit_ts db in
  let rr =
    Replay.replay_reads db iso
      ~snapshot:(fun id -> Option.value (Hashtbl.find_opt snapshots id) ~default:newest)
      reads
  in
  let n_inserts, insert_s = Replay.replay_inserts db history in
  let tables = List.filter_map (Db.table db) w.tables in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tables in
  (* WAL: the records still buffered (No_flush) are hardened so the image
     holds the whole run. *)
  let wal = Db.wal db in
  let appends = Wal.appends wal - t.setup.s_wal_appends in
  let flushes = Wal.flushes wal - t.setup.s_wal_flushes in
  Wal.harden wal;
  let wal_bytes = Wal.durable_bytes wal - t.setup.s_wal_bytes in
  let wal_records, decode_s, errors =
    match Replay.replay_wal (Wal.durable_log wal) with
    | Ok (n, s) -> (n, s, errors)
    | Error e -> (1, 0.0, errors @ [ Printf.sprintf "%s %s: WAL replay: %s" w.name iso_name e ])
  in
  (* Simulated CPU. *)
  let cpu = Db.cpu db in
  let uses = Resource.acquisitions cpu - t.setup.s_cpu_uses in
  let replayed_uses, cpu_s =
    Replay.replay_cpu ~capacity:(Resource.capacity cpu) ~mpl:Measure.mpl ~uses
      ~busy:(Resource.busy_time cpu -. t.setup.s_cpu_busy)
  in
  let ns_per n s = if n = 0 then 0.0 else s *. scale *. 1e9 /. float_of_int n in
  let us_per_txn s = s *. scale *. 1e6 /. float_of_int (max 1 commits) in
  let untraced_wall = u.wall *. Measure.reference_probe /. u_probe in
  let traced_wall = t.wall *. Measure.reference_probe /. t_probe in
  let decode_ns = ns_per wal_records decode_s in
  let replayed_us =
    us_per_txn lr.l_seconds +. us_per_txn rr.r_seconds +. us_per_txn insert_s
    +. (decode_ns *. float_of_int appends /. 1000.0 /. float_of_int (max 1 commits))
    +. us_per_txn cpu_s
  in
  let mx = Obs.metrics obs in
  let cache_hit, evictions =
    match Db.cache db with
    | Some c -> (Bufcache.hit_rate c, Bufcache.evictions c)
    | None -> (1.0, 0)
  in
  let p = iso_name ^ "." in
  let metrics =
    [
      ("lockmgr.requests_per_txn", "1/txn", per_txn commits (Lockmgr.requests locks));
      ("lockmgr.waits_per_txn", "1/txn", per_txn commits (Lockmgr.waits locks));
      ("lockmgr.deadlocks_per_txn", "1/txn", per_txn commits (Lockmgr.deadlocks locks));
      ("lockmgr.holders_scanned_per_txn", "1/txn", per_txn commits lr.l_holders_scanned);
      ("lockmgr.table_entries_end", "count", float_of_int t.result.end_lock_table);
      ("lockmgr.us_per_txn", "us", us_per_txn lr.l_seconds);
      ("lockmgr.replay_requests_per_txn", "1/txn", per_txn commits lr.l_requests);
      ("lockmgr.replay_table_entries_end", "count", float_of_int lr.l_table_end);
      ("lockmgr.replay_skipped", "count", float_of_int lr.l_skipped);
      ("core.conflict_edges_per_txn", "1/txn", per_txn commits (Obs.conflict_total mx));
      ("core.unsafe_per_txn", "1/txn", per_txn commits t.outcome.unsafe);
      ("core.fcw_per_txn", "1/txn", per_txn commits t.outcome.conflicts);
      ("core.retained_hwm", "count", float_of_int mx.Obs.m_retained_hwm);
      ("core.siread_live_hwm", "count", float_of_int mx.Obs.m_siread_live_hwm);
      ("core.cleanup_released_per_txn", "1/txn", per_txn commits mx.Obs.m_cleanup_released);
      ("core.residual_us_per_txn", "us", (untraced_wall *. 1e6 /. float_of_int (max 1 commits)) -. replayed_us);
      ("storage.reads_per_txn", "1/txn", per_txn commits rr.r_count);
      ("storage.versions_walked_per_read", "1/read", per_txn rr.r_count rr.r_versions_walked);
      ("storage.versions_per_key", "1/key", per_txn (sum Mvstore.key_count) (sum Mvstore.version_count));
      ("storage.us_per_txn", "us", us_per_txn rr.r_seconds);
      ("btree.nodes_per_lookup", "1/lookup", per_txn rr.r_count rr.r_nodes);
      ("btree.pages", "count", float_of_int (sum (fun t -> Btree.page_count (Mvstore.index t))));
      ("btree.insert_ns", "ns", ns_per n_inserts insert_s);
      ("wal.bytes_per_txn", "B/txn", per_txn commits wal_bytes);
      ("wal.appends_per_flush", "1/flush", if flushes = 0 then 0.0 else per_txn flushes appends);
      ("wal.decode_ns_per_record", "ns", decode_ns);
      ("sim.cpu_uses_per_txn", "1/txn", per_txn commits uses);
      ("sim.use_ns", "ns", ns_per replayed_uses cpu_s);
      ("bufcache.hit_rate", "share", cache_hit);
      ("bufcache.evictions_per_txn", "1/txn", per_txn commits evictions);
      ("sercheck.mvsg_ms", "ms", mvsg_s *. scale *. 1000.0);
      ("gc.promoted_kwords_per_txn", "kword", u.promoted /. 1000.0 /. float_of_int (max 1 commits));
      ("gc.major_collections", "count", float_of_int u.major_collections);
      ("obs.events_per_txn", "1/txn", per_txn commits (Obs.event_count obs));
      ("obs.trace_overhead_pct", "%", ((traced_wall /. untraced_wall) -. 1.0) *. 100.0);
    ]
    |> List.map (fun (key, unit, value) -> Emit.metric (p ^ key) unit value)
  in
  (metrics, errors, [ u; t ])

(* SSI only: the minor words a present-but-off sink costs over the default
   disabled one, and the concurrency dependence of holder scans and
   allocation at MPL 5 and 40. *)
let ssi_extras (w : Workloads.t) ~seed =
  let level = ("ssi", Types.Serializable) in
  let off = Measure.run_once w level ~seed in
  let sink = Measure.run_once ~obs:(Obs.create ~trace:false ~metrics:false ()) w level ~seed in
  let delta = Emit.metric "ssi.obs.off_sink_kwords_delta" "kword" ((sink.words -. off.words) /. 1000.0) in
  let at mpl =
    let u = Measure.run_once ~mpl w level ~seed in
    let t, obs, _ = traced_run ~mpl ~record:false w level ~seed in
    let lr = Replay.replay_locks ~holders_after:(holders_after Types.Serializable) (Replay.lock_ops obs) in
    let commits = t.outcome.commits in
    ( [
        Emit.metric
          (Printf.sprintf "ssi.lockmgr.holders_scanned_per_txn.mpl%d" mpl)
          "1/txn" (per_txn commits lr.l_holders_scanned);
        Emit.metric
          (Printf.sprintf "ssi.gc.minor_kwords_per_txn.mpl%d" mpl)
          "kword"
          (u.words /. 1000.0 /. float_of_int (max 1 u.outcome.commits));
      ],
      [ u; t ] )
  in
  let m5, r5 = at 5 and m40, r40 = at 40 in
  let runs = [ off; sink ] @ r5 @ r40 in
  let errors =
    List.concat_map
      (fun (r : Measure.run) -> List.map (Printf.sprintf "%s ssi: %s" w.name) r.errors)
      runs
    @
    if sink.outcome <> off.outcome then [ w.name ^ " ssi: an off sink changed the simulated outcome" ]
    else []
  in
  ((delta :: m5) @ m40, errors, runs)

let spans_dir = "_perfbench"

let run (w : Workloads.t) ~seed =
  let bench_seed = seed in
  let seed = Workloads.sub_seed bench_seed 0 in
  let levels = List.map (fun level -> level_ledger w level ~seed) Measure.isolations in
  let extra_metrics, extra_errors, extra_runs = ssi_extras w ~seed in
  let metrics = List.concat_map (fun (m, _, _) -> m) levels @ extra_metrics in
  let errors = List.concat_map (fun (_, e, _) -> e) levels @ extra_errors in
  let runs = List.concat_map (fun (_, _, r) -> r) levels @ extra_runs in
  let attempted = List.fold_left (fun acc (r : Measure.run) -> acc + Measure.attempts r.outcome) 0 runs in
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  Replay.write_spans (Filename.concat spans_dir (Printf.sprintf "ledger-%s-seed%d.json" w.name bench_seed));
  {
    Emit.attempted = max 1 attempted;
    failed = (if errors = [] then 0 else attempted);
    errors;
    metrics;
  }
