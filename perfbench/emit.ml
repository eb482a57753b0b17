(* The benchmark's result line and the statistics behind it. *)

type metric = { name : string; value : float; unit : string }

type t = {
  attempted : int;  (** simulated transaction attempts *)
  failed : int;  (** attempts belonging to runs that failed a check *)
  metrics : metric list;
  errors : string list;  (** failed checks; the result is correct without any *)
}

let metric name unit value = { name; value; unit }

let median = function
  | [] -> invalid_arg "median: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The failed checks go to stderr, the result line to stdout. Numbers keep
   every digit; a non-finite value cannot be written as JSON, so it is
   reported as a failed check and written as 0. *)
let print r =
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) r.metrics in
  let errors = r.errors @ List.map (fun m -> "non-finite metric " ^ m.name) bad in
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) errors;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (errors = []) r.attempted r.failed (String.concat ", " metrics)
