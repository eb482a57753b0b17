(* Simulated outcomes of the runs every benchmark run makes for the default
   seed (1) and the held-out seed (2), keyed by driver seed (see
   Workloads.sub_seed): commits, application rollbacks, deadlocks,
   first-committer-wins aborts, unsafe aborts, other aborts. They are the
   reproduction's results, so an implementation change must leave them
   exactly as they are; a run whose outcome differs fails its check. *)

let table : (string * int * string * int array) list =
  [
    ("sibench-scan", 100, "s2pl", [| 1245; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 100, "si", [| 3678; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 100, "ssi", [| 3678; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 101, "s2pl", [| 1211; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 101, "si", [| 3603; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 101, "ssi", [| 3603; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 102, "s2pl", [| 1248; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 102, "si", [| 3745; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 102, "ssi", [| 3745; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 103, "s2pl", [| 1165; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 103, "si", [| 3588; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 103, "ssi", [| 3588; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 104, "s2pl", [| 1181; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 104, "si", [| 3504; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 104, "ssi", [| 3504; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 200, "s2pl", [| 1265; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 200, "si", [| 3564; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 200, "ssi", [| 3564; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 201, "s2pl", [| 1265; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 201, "si", [| 3582; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 201, "ssi", [| 3582; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 202, "s2pl", [| 1211; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 202, "si", [| 3634; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 202, "ssi", [| 3634; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 203, "s2pl", [| 1117; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 203, "si", [| 3685; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 203, "ssi", [| 3685; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 204, "s2pl", [| 1296; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 204, "si", [| 3652; 0; 0; 0; 0; 0 |]);
    ("sibench-scan", 204, "ssi", [| 3652; 0; 0; 0; 0; 0 |]);
    ("smallbank-point", 100, "s2pl", [| 5606; 0; 0; 0; 0; 0 |]);
    ("smallbank-point", 100, "si", [| 20102; 0; 0; 589; 0; 0 |]);
    ("smallbank-point", 100, "ssi", [| 18658; 0; 0; 526; 2; 0 |]);
    ("smallbank-point", 101, "s2pl", [| 4726; 0; 0; 0; 0; 0 |]);
    ("smallbank-point", 101, "si", [| 20176; 0; 0; 615; 0; 0 |]);
    ("smallbank-point", 101, "ssi", [| 18763; 0; 0; 526; 0; 0 |]);
    ("smallbank-point", 200, "s2pl", [| 9845; 0; 0; 0; 0; 0 |]);
    ("smallbank-point", 200, "si", [| 20046; 0; 0; 608; 0; 0 |]);
    ("smallbank-point", 200, "ssi", [| 18598; 0; 0; 549; 1; 0 |]);
    ("smallbank-point", 201, "s2pl", [| 11943; 0; 0; 0; 0; 0 |]);
    ("smallbank-point", 201, "si", [| 20143; 0; 0; 599; 0; 0 |]);
    ("smallbank-point", 201, "ssi", [| 18747; 0; 0; 542; 0; 0 |]);
    ("tpcc-lru", 100, "s2pl", [| 2681; 10; 2; 0; 0; 0 |]);
    ("tpcc-lru", 100, "si", [| 2707; 8; 0; 115; 0; 0 |]);
    ("tpcc-lru", 100, "ssi", [| 2713; 9; 0; 126; 1; 0 |]);
    ("tpcc-lru", 101, "s2pl", [| 2761; 11; 1; 0; 0; 0 |]);
    ("tpcc-lru", 101, "si", [| 2769; 13; 0; 90; 0; 0 |]);
    ("tpcc-lru", 101, "ssi", [| 2773; 12; 0; 116; 2; 0 |]);
    ("tpcc-lru", 102, "s2pl", [| 2824; 13; 1; 0; 0; 0 |]);
    ("tpcc-lru", 102, "si", [| 2734; 9; 0; 101; 0; 0 |]);
    ("tpcc-lru", 102, "ssi", [| 2755; 7; 0; 108; 2; 0 |]);
    ("tpcc-lru", 200, "s2pl", [| 2698; 12; 2; 0; 0; 0 |]);
    ("tpcc-lru", 200, "si", [| 2780; 15; 0; 129; 0; 0 |]);
    ("tpcc-lru", 200, "ssi", [| 2711; 16; 0; 129; 0; 0 |]);
    ("tpcc-lru", 201, "s2pl", [| 2757; 15; 2; 0; 0; 0 |]);
    ("tpcc-lru", 201, "si", [| 2687; 9; 0; 113; 0; 0 |]);
    ("tpcc-lru", 201, "ssi", [| 2727; 16; 0; 105; 1; 0 |]);
    ("tpcc-lru", 202, "s2pl", [| 2734; 12; 5; 0; 0; 0 |]);
    ("tpcc-lru", 202, "si", [| 2666; 12; 0; 99; 0; 0 |]);
    ("tpcc-lru", 202, "ssi", [| 2690; 10; 0; 123; 0; 0 |]);
  ]

let check ~workload ~seed ~iso (o : Measure.outcome) =
  match List.find_opt (fun (w, s, i, _) -> w = workload && s = seed && i = iso) table with
  | None -> []
  | Some (_, _, _, e) ->
      let expected =
        {
          Measure.commits = e.(0);
          user_aborts = e.(1);
          deadlocks = e.(2);
          conflicts = e.(3);
          unsafe = e.(4);
          other = e.(5);
        }
      in
      if expected = o then []
      else
        [
          Printf.sprintf "%s seed %d %s: outcome %s, reference %s" workload seed iso
            (Measure.outcome_to_string o) (Measure.outcome_to_string expected);
        ]
