(* One measured run, described once: workload, isolation level, clients,
   measurement window, seeds and memory budget. Every run-a-workload
   subcommand of ssi_bench (bench, timeline, attribute, report) reads its
   scenario through the Cmdliner terms below, and [run]/[report] read their
   figure-sweep budget through [budget]. The converters reject bad values at
   the command line (Cmdliner exits 124 and names the flag), so a [t] that
   reaches a command is valid. *)

open Cmdliner

(* {1 Registry} *)

(* Workload per name: the workloads of Figs 6.1, 6.7 and 6.12 (tpcc is one
   warehouse, year-to-date updates skipped). *)
let registry =
  Experiments.
    [
      ("smallbank", fig6_1_workload);
      ("sibench", fig6_7_workload);
      ("tpcc", fig6_12_workload);
    ]

let isolations =
  Core.Types.[ ("si", Snapshot); ("ssi", Serializable); ("s2pl", S2pl); ("rc", Read_committed) ]

let isolation_name i = fst (List.find (fun (_, j) -> j = i) isolations)

(* {1 The validated record} *)

type t = {
  workload : string;  (** a [registry] name, or a command's extra workload *)
  isolation : Core.Types.isolation;
  mpl : int;
  duration : float;  (** measured simulated seconds *)
  warmup : float;
  seed : int;  (** base seed *)
  nseeds : int;  (** runs use seeds [seed], [seed+1], ... *)
  memory_budget : int option;
}

let seeds t = List.init t.nseeds (fun i -> t.seed + i)

let driver_config ?seed t =
  {
    Driver.default_config with
    Driver.isolation = t.isolation;
    mpl = t.mpl;
    warmup = t.warmup;
    duration = t.duration;
    seed = Option.value seed ~default:t.seed;
  }

(* [make_db] and [mix] of a registered workload, under the memory budget. *)
let workload t =
  match List.assoc_opt t.workload registry with
  | Some w ->
      let budget c = { c with Core.Config.memory_budget = t.memory_budget } in
      let w = Experiments.with_config budget w in
      (Experiments.make_db w, w.Experiments.mix)
  | None -> invalid_arg ("Scenario.workload: not a registered workload: " ^ t.workload)

(* {1 Converters} *)

let checked ~ok ~want conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s want))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = checked ~ok:(fun n -> n > 0) ~want:"a positive integer" Arg.int
let nonneg_int = checked ~ok:(fun n -> n >= 0) ~want:"a non-negative integer" Arg.int

let pos_float =
  checked ~ok:(fun x -> Float.is_finite x && x > 0.0) ~want:"a positive number" Arg.float

let nonneg_float =
  checked ~ok:(fun x -> Float.is_finite x && x >= 0.0) ~want:"a non-negative number" Arg.float

let isolation_conv = Arg.enum isolations

(* One of [names], kept as the string. *)
let choice names = Arg.enum (List.map (fun n -> (n, n)) names)

let figure_id =
  let parse id =
    if Experiments.find_figure id <> None then Ok id
    else Error (Printf.sprintf "unknown experiment %s (see ssi_bench list)" id)
  in
  Arg.conv' ~docv:"ID" (parse, Format.pp_print_string)

(* {1 Terms} *)

(* The single-run flags. [prefix] renames all of them but --workload
   (report's --bench-mpl, ...); [extra] adds command-specific workloads as
   (name, doc) pairs. *)
let single ?(prefix = "") ?(extra = []) ~workload () =
  let named name ~doc = Arg.info [ prefix ^ name ] ~doc in
  let names = List.map fst registry @ List.map fst extra in
  let workload_doc =
    List.map fst registry @ List.map (fun (n, d) -> n ^ " (" ^ d ^ ")") extra
    |> String.concat " | "
  in
  let workload =
    Arg.(
      value
      & opt (choice names) workload
      & info [ "workload" ] ~docv:"NAME" ~doc:("Workload: " ^ workload_doc))
  in
  let isolation =
    Arg.(
      value
      & opt isolation_conv Core.Types.Serializable
      & named "isolation" ~doc:"si | ssi | s2pl | rc")
  in
  let mpl = Arg.(value & opt pos_int 10 & named "mpl" ~doc:"Number of concurrent clients") in
  let duration =
    Arg.(value & opt pos_float 0.5 & named "duration" ~doc:"Measured simulated seconds")
  in
  let warmup =
    Arg.(value & opt nonneg_float 0.1 & named "warmup" ~doc:"Warmup simulated seconds")
  in
  let seed = Arg.(value & opt int 1 & named "seed" ~doc:"Random (base) seed") in
  let make workload isolation mpl duration warmup seed =
    { workload; isolation; mpl; duration; warmup; seed; nseeds = 1; memory_budget = None }
  in
  Term.(const make $ workload $ isolation $ mpl $ duration $ warmup $ seed)

(* [single] plus --seeds and --memory-budget. *)
let term ?extra ~workload () =
  let nseeds =
    Arg.(
      value & opt pos_int 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Run seeds base, base+1, ... base+$(docv)-1 and aggregate; pairs with -j")
  in
  let memory_budget =
    Arg.(
      value & opt nonneg_int 0
      & info [ "memory-budget" ] ~docv:"N"
          ~doc:
            "Bound SIREAD/retained-transaction memory to $(docv) entries (0 = unbounded): row \
             SIREADs promote to page granularity and old committed transactions are folded \
             into a conservative summary under pressure")
  in
  let make t nseeds b = { t with nseeds; memory_budget = (if b > 0 then Some b else None) } in
  Term.(const make $ single ?extra ~workload () $ nseeds $ memory_budget)

(* Figure-sweep budget for [run] and [report]: each flag left unset takes
   its value from [Experiments.full_budget], or from [quick_budget] under
   --quick; --duration D sets the warmup to D/4. *)
let budget =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Start from the fast smoke budget") in
  let seeds =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "seeds" ] ~doc:"Number of random seeds per point")
  in
  let duration =
    Arg.(
      value
      & opt (some pos_float) None
      & info [ "duration" ] ~doc:"Measured simulated seconds per run (warmup: a quarter of it)")
  in
  let mpls =
    let mpl_list = checked ~ok:(fun l -> l <> []) ~want:"a non-empty list" Arg.(list pos_int) in
    Arg.(
      value
      & opt (some mpl_list) None
      & info [ "mpl" ] ~doc:"Comma-separated multiprogramming levels")
  in
  let make quick seeds duration mpls =
    let b = if quick then Experiments.quick_budget else Experiments.full_budget in
    {
      b with
      Experiments.seeds =
        (match seeds with Some n -> List.init n (fun i -> i + 1) | None -> b.Experiments.seeds);
      duration = Option.value duration ~default:b.Experiments.duration;
      warmup = (match duration with Some d -> d /. 4.0 | None -> b.Experiments.warmup);
      mpls = Option.value mpls ~default:b.Experiments.mpls;
    }
  in
  Term.(const make $ quick $ seeds $ duration $ mpls)
