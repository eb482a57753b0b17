(* Replays of one traced run's recorded streams into fresh instances of
   each layer, through the layer's public functions. Each replay times one
   span around its loop of calls; the inputs are decoded before the span
   opens, so the span holds only the layer's own work. *)

open Core

type span = { name : string; start : float; stop : float }

let spans : span list ref = ref []

let timed name f =
  let start = Measure.now () in
  let v = f () in
  let stop = Measure.now () in
  spans := { name; start; stop } :: !spans;
  (v, stop -. start)

(* Chrome-trace JSON of every span, in microseconds since the first. *)
let write_spans path =
  let spans = List.rev !spans in
  let t0 = List.fold_left (fun acc s -> min acc s.start) infinity spans in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6))
    spans;
  output_string oc "]\n";
  close_out oc

(* {1 Lock manager} *)

type lock_op = Acquire of int * Lockmgr.mode * string | Release of int * bool

let mode_of_string m =
  List.find (fun mode -> Lockmgr.mode_to_string mode = m) Lockmgr.[ S; X; Siread ]

(* The recorded lock stream: immediate grants, grants after a wait, and
   releases. Requests that never got their lock (deadlock victims) leave no
   grant, and [Lockmgr.release_one] (the SIREAD upgrade of §3.7.3) and
   [transfer_sireads] emit nothing, so the replay keeps those entries. *)
let lock_ops obs =
  List.filter_map
    (fun (_, ev) ->
      match ev with
      | Obs.Lock_acquire { owner; mode; resource } | Obs.Lock_grant { owner; mode; resource; _ } ->
          Some (Acquire (owner, mode_of_string mode, resource))
      | Obs.Lock_release_all { owner; kept_siread } -> Some (Release (owner, kept_siread))
      | _ -> None)
    (Obs.events obs)
  |> Array.of_list

type locks = {
  l_requests : int;
  l_table_end : int;
  l_holders_scanned : int;
  l_skipped : int;  (** grants that conflict in recorded order, left out *)
  l_seconds : float;
}

(* [holders_after] says which grants the engine follows with a [holders]
   scan: SSI's SIREAD and X grants (Figs 3.4-3.7). A grant whose waiter was
   woken after another owner's conflicting grant was recorded would block a
   replay with no other process to release it; a dry pass finds those and
   the timed pass leaves them out. *)
let replay_locks ~holders_after ops =
  let conflicting lm owner mode resource =
    List.exists (fun (o, m) -> o <> owner && Lockmgr.blocks mode m) (Lockmgr.holders lm resource)
  in
  let dry = Lockmgr.create (Sim.create ()) in
  let skip =
    Array.map
      (function
        | Acquire (owner, mode, resource) ->
            if conflicting dry owner mode resource then true
            else (
              Lockmgr.acquire dry ~owner ~mode resource;
              false)
        | Release (owner, keep_siread) ->
            Lockmgr.release_all ~keep_siread dry owner;
            false)
      ops
  in
  let lm = Lockmgr.create (Sim.create ()) in
  let scanned = ref 0 in
  let (), seconds =
    timed "replay:lockmgr" (fun () ->
        Array.iteri
          (fun i op ->
            if not skip.(i) then
              match op with
              | Acquire (owner, mode, resource) ->
                  Lockmgr.acquire lm ~owner ~mode resource;
                  if holders_after mode then
                    scanned := !scanned + List.length (Lockmgr.holders lm resource)
              | Release (owner, keep_siread) -> Lockmgr.release_all ~keep_siread lm owner)
          ops)
  in
  {
    l_requests = Lockmgr.requests lm;
    l_table_end = Lockmgr.lock_table_size lm;
    l_holders_scanned = !scanned;
    l_skipped = Array.fold_left (fun n s -> if s then n + 1 else n) 0 skip;
    l_seconds = seconds;
  }

(* {1 Version store and B+tree} *)

(* "r/<table>/<key>" -> (table, key) *)
let split_row resource =
  let rest = String.sub resource 2 (String.length resource - 2) in
  let i = String.index rest '/' in
  (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))

type reads = {
  r_count : int;
  r_nodes : int;  (** B+tree pages on the descent paths *)
  r_versions_walked : int;
  r_seconds : float;
}

(* Each distinct row read of a transaction attempt, against the run's final
   store, at the attempt's snapshot (from the committed history; attempts
   that did not commit read at the newest snapshot). S2PL reads the newest
   version; SSI also collects the versions newer than its snapshot. *)
let replay_reads db iso ~snapshot reads =
  let items =
    Array.map
      (fun (id, resource) ->
        let table, key = split_row resource in
        (Db.table_exn db table, key, snapshot id))
      reads
  in
  let (), seconds =
    timed "replay:mvstore" (fun () ->
        Array.iter
          (fun (table, key, snap) ->
            match Mvstore.find_chain_path table key with
            | None, _ -> ()
            | Some chain, _ -> (
                match iso with
                | Types.S2pl | Types.Read_committed -> ignore (Mvstore.latest chain)
                | Types.Snapshot -> ignore (Mvstore.visible chain ~snapshot:snap)
                | Types.Serializable ->
                    ignore (Mvstore.visible chain ~snapshot:snap);
                    ignore (Mvstore.newer_versions chain ~than:snap)))
          items)
  in
  let nodes = ref 0 and walked = ref 0 in
  Array.iter
    (fun (table, key, snap) ->
      let chain, access = Mvstore.find_chain_path table key in
      nodes := !nodes + List.length access.Btree.path;
      match chain with
      | None -> ()
      | Some c -> (
          match iso with
          | Types.S2pl | Types.Read_committed -> incr walked
          | Types.Snapshot | Types.Serializable ->
              let rec go n = function
                | [] -> n
                | (v : Mvstore.version) :: rest -> if v.commit_ts <= snap then n + 1 else go (n + 1) rest
              in
              walked := !walked + go 0 c.Mvstore.versions))
    items;
  { r_count = Array.length items; r_nodes = !nodes; r_versions_walked = !walked; r_seconds = seconds }

(* Committed writes, in commit order, into fresh trees preloaded with the
   keys the bulk load created (versions written by creator 0). *)
let replay_inserts db (history : Types.committed_record list) =
  let fanout = (Db.config db).Config.btree_fanout in
  let trees = Hashtbl.create 8 in
  let tree name =
    match Hashtbl.find_opt trees name with
    | Some t -> t
    | None ->
        let t = Btree.create ~fanout () in
        Btree.iter_range (Mvstore.index (Db.table_exn db name)) (fun key (chain : Mvstore.chain) ->
            match List.rev chain.versions with
            | { creator = 0; _ } :: _ -> ignore (Btree.insert t key ())
            | _ -> ());
        Hashtbl.replace trees name t;
        t
  in
  let writes =
    List.concat_map (fun (h : Types.committed_record) -> h.h_writes) history
    |> List.map (fun (table, key) -> (tree table, key))
    |> Array.of_list
  in
  let (), seconds =
    timed "replay:btree" (fun () -> Array.iter (fun (t, key) -> ignore (Btree.insert t key ())) writes)
  in
  (Array.length writes, seconds)

(* {1 WAL, CPU, MVSG} *)

let replay_wal log =
  match timed "replay:wal-decode" (fun () -> Wal.decode log) with
  | Error e, _ -> Error e
  | Ok (records, _), decode ->
      let image, _ = timed "replay:wal-encode" (fun () -> Wal.encode records) in
      if image <> log then Error "re-encoding the decoded records does not give the log back"
      else Ok (List.length records, decode)

(* [uses] CPU uses of [busy / uses] simulated seconds each, shared out over
   [mpl] processes on a [capacity]-server resource. *)
let replay_cpu ~capacity ~mpl ~uses ~busy =
  let sim = Sim.create () in
  let cpu = Resource.create sim ~name:"cpu" ~capacity in
  let per = uses / mpl and dt = if uses > 0 then busy /. float_of_int uses else 0.0 in
  for _ = 1 to mpl do
    Sim.spawn sim (fun () ->
        for _ = 1 to per do
          Resource.use cpu dt ignore
        done)
  done;
  let (), seconds = timed "replay:sim" (fun () -> Sim.run sim) in
  (Resource.acquisitions cpu, seconds)

let check_history history = timed "sercheck:mvsg" (fun () -> Mvsg.is_serializable history)
