(* End-to-end metrics, tracing off.

   Round [n] runs S2PL, SI and SSI back to back on driver seed
   [Workloads.sub_seed seed n]; rounds go on until the time budget is spent,
   and the workload's first [exact_runs] rounds always run. The allocation
   counts come from those first rounds, so they are exact for a seed. Wall
   times are scaled to the host-speed probe's reference speed
   (Measure.probe), and the wall per transaction of a level is the median
   over rounds: each round has its own input, and the median keeps a round
   hit by a burst of load out. *)

type sample = {
  outcome : Measure.outcome;
  raw_wall : float;
  wall : float;  (** scaled to the probe's reference speed *)
  words : float;
  setup : float;  (** scaled like [wall] *)
}

type cell = {
  level : string;
  round : int;
  probe : float;  (** the probe just before the run *)
  run : (sample, string) result;
  errors : string list;
}

(* [wall] and [setup] are left unscaled here; see [scaled]. *)
let attempt (w : Workloads.t) ((iso, _) as level) ~seed ~round =
  let seed = Workloads.sub_seed seed round in
  let probe = Measure.probe () in
  match Measure.run_once w level ~seed with
  | exception e -> { level = iso; round; probe; run = Error (Printexc.to_string e); errors = [] }
  | r ->
      let s =
        { outcome = r.outcome; raw_wall = r.wall; wall = r.wall; words = r.words; setup = r.setup.s_wall }
      in
      let errors =
        List.map (Printf.sprintf "%s %s seed %d: %s" w.name iso seed) r.errors
        @ Reference.check ~workload:w.name ~seed ~iso s.outcome
      in
      { level = iso; round; probe; run = Ok s; errors }

(* Scales each run by the mean of the probes before and after it: the next
   run's, or [last] after the final run. *)
let rec scaled last = function
  | [] -> []
  | c :: rest ->
      let next = match rest with c' :: _ -> c'.probe | [] -> last in
      let scale = Measure.reference_probe /. ((c.probe +. next) /. 2.0) in
      let run = Result.map (fun s -> { s with wall = s.wall *. scale; setup = s.setup *. scale }) c.run in
      { c with run } :: scaled last rest

let run (w : Workloads.t) ~seed ~seconds =
  let t0 = Measure.now () in
  let rec loop acc n =
    if n >= w.exact_runs && Measure.now () -. t0 >= seconds then (List.rev acc, n)
    else
      let round = List.map (fun level -> attempt w level ~seed ~round:n) Measure.isolations in
      loop (List.rev_append round acc) (n + 1)
  in
  let cells, n_rounds = loop [] 0 in
  let cells = scaled (Measure.probe ()) cells in
  let attempted, failed, aborted =
    List.fold_left
      (fun (att, fail, ab) c ->
        match c.run with
        | Error _ -> (att + 1, fail + 1, ab)
        | Ok s ->
            let n = Measure.attempts s.outcome in
            if c.errors = [] then (att + n, fail, ab + Measure.error_aborts s.outcome)
            else (att + n, fail + n, ab))
      (0, 0, 0) cells
  in
  let errors =
    List.concat_map
      (fun c -> match c.run with Error e -> [ w.name ^ " " ^ c.level ^ ": " ^ e ] | Ok _ -> c.errors)
      cells
  in
  let sample iso round =
    List.find_map
      (fun c -> match c.run with Ok s when c.level = iso && c.round = round -> Some s | _ -> None)
      cells
  in
  let per_round f = List.filter_map f (List.init n_rounds Fun.id) in
  let median_or_zero = function [] -> 0.0 | xs -> Emit.median xs in
  let commits s = float_of_int (max 1 s.outcome.commits) in
  let txn_per_s iso =
    match per_round (fun n -> Option.map (fun s -> s.wall /. commits s) (sample iso n)) with
    | [] -> 0.0
    | costs -> 1.0 /. Emit.median costs
  in
  (* Paired within each round: the same input and nearly the same host
     state for both levels, so the unscaled walls compare best. *)
  let ssi_cost_vs_si =
    median_or_zero
      (per_round (fun n ->
           match (sample "ssi" n, sample "si" n) with
           | Some a, Some b -> Some (a.raw_wall /. commits a /. (b.raw_wall /. commits b))
           | _ -> None))
  in
  (* Exact: over the first [exact_runs] rounds, all of which must have
     finished. *)
  let kwords iso =
    let ss = List.filter_map (sample iso) (List.init w.exact_runs Fun.id) in
    if List.length ss < w.exact_runs then 0.0
    else
      let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 ss in
      sum (fun s -> s.words) /. 1000.0 /. sum commits
  in
  let setup_s =
    median_or_zero
      (per_round (fun n ->
           match List.map (fun (iso, _) -> sample iso n) Measure.isolations with
           | ss when List.for_all Option.is_some ss ->
               Some (List.fold_left (fun acc s -> acc +. (Option.get s).setup) 0.0 ss)
           | _ -> None))
  in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.eprintf "perfbench: %s seed %d: %d rounds in %.1f s\n%!" w.name seed n_rounds
    (Measure.now () -. t0);
  let metrics =
    List.concat_map
      (fun (iso, _) ->
        [
          Emit.metric (iso ^ "_txn_per_s") "1/s" (txn_per_s iso);
          Emit.metric (iso ^ "_kwords_per_txn") "kword" (kwords iso);
        ])
      Measure.isolations
    @ [
        Emit.metric "ssi_cost_vs_si" "ratio" ssi_cost_vs_si;
        Emit.metric "setup_s" "s" setup_s;
        Emit.metric "peak_heap_mb" "MiB"
          (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
        Emit.metric "success_share" "share"
          (float_of_int (attempted - failed - aborted) /. float_of_int (max 1 attempted));
      ]
  in
  { Emit.attempted = max 1 attempted; failed; errors; metrics }
