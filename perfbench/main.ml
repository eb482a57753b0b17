(* Benchmark of record: wall cost per committed simulated transaction for
   sibench, SmallBank and TPC-C++ under S2PL, SI and SSI at MPL 20.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0, rounds of the three isolation runs, back to back in one
   process, go on until S seconds have passed and give the end-to-end
   metrics (see Endtoend). With --trace 1, one untraced and one traced run
   per isolation level give the per-layer ledger (see Ledger). The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Diagnostics go to
   stderr. *)

let usage =
  "usage: main.exe --workload sibench-scan|smallbank-point|tpcc-lru --seed N --seconds S \
   --trace 0|1"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

type args = { workload : Workloads.t; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, value) :: acc) rest
    | x :: _ -> fail ("unexpected argument " ^ x)
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  List.iter
    (fun (flag, _) ->
      if not (List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ]) then
        fail ("unknown flag " ^ flag))
    opts;
  let get flag = match List.assoc_opt flag opts with Some v -> v | None -> fail ("missing " ^ flag) in
  let workload =
    let name = get "--workload" in
    match Workloads.find name with Some w -> w | None -> fail ("unknown workload " ^ name)
  in
  let seed =
    match int_of_string_opt (get "--seed") with Some s -> s | None -> fail "--seed must be an integer"
  in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when Float.is_finite s && s > 0.0 -> s
    | _ -> fail "--seconds must be a positive number"
  in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> fail "--trace must be 0 or 1"
  in
  { workload; seed; seconds; trace }

let () =
  let a = parse Sys.argv in
  let outcome =
    if a.trace then Ledger.run a.workload ~seed:a.seed
    else Endtoend.run a.workload ~seed:a.seed ~seconds:a.seconds
  in
  Emit.print outcome
