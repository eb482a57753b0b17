(* Flight recorder: bounded ring of recent events + anomaly triggers that
   freeze it into a post-mortem bundle (see flightrec.mli and DESIGN.md
   "Attribution & flight recorder").

   Consumption is a pure chronological fold: the trigger state advances at
   window boundaries only, and the first firing freezes the ring before the
   next event is pushed — so the frozen contents are exactly the stream up
   to the end of the triggering window, independent of how the run was
   scheduled. *)

type t = {
  fr_cap : int;
  fr_ring : (float * Obs.event) option array;
  mutable fr_next : int; (* next write slot *)
  mutable fr_len : int;
  mutable fr_drops : int;
  mutable fr_frozen : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Flightrec.create: capacity must be >= 1";
  {
    fr_cap = capacity;
    fr_ring = Array.make capacity None;
    fr_next = 0;
    fr_len = 0;
    fr_drops = 0;
    fr_frozen = false;
  }

let capacity t = t.fr_cap

let length t = t.fr_len

let drops t = t.fr_drops

let frozen t = t.fr_frozen

let push t ts e =
  if not t.fr_frozen then begin
    if t.fr_len = t.fr_cap then t.fr_drops <- t.fr_drops + 1 else t.fr_len <- t.fr_len + 1;
    t.fr_ring.(t.fr_next) <- Some (ts, e);
    t.fr_next <- (t.fr_next + 1) mod t.fr_cap
  end

let freeze t = t.fr_frozen <- true

let contents t =
  let out = ref [] in
  (* Newest entry sits just before fr_next; walk backwards fr_len slots. *)
  for i = 1 to t.fr_len do
    let slot = (t.fr_next - i + (2 * t.fr_cap)) mod t.fr_cap in
    match t.fr_ring.(slot) with Some ev -> out := ev :: !out | None -> ()
  done;
  !out

(* {1 Triggers} *)

type trigger = Abort_storm of float | Slo_violation of Timeline.slo | Regime of string

let num v = Printf.sprintf "%.9g" v

let trigger_to_string = function
  | Abort_storm x -> Printf.sprintf "abort_rate:%s" (num x)
  | Slo_violation s ->
      Printf.sprintf "slo:%s:%s" (num s.Timeline.slo_abort_rate) (num s.Timeline.slo_p95)
  | Regime series -> Printf.sprintf "regime:%s" series

let trigger_of_string spec =
  match String.split_on_char ':' spec with
  | [ "abort_rate"; x ] -> (
      match float_of_string_opt x with
      | Some v when v > 0.0 && v <= 1.0 -> Ok (Abort_storm v)
      | _ -> Error (Printf.sprintf "abort_rate threshold must be in (0,1]: %s" x))
  | [ "slo" ] -> Ok (Slo_violation { Timeline.slo_abort_rate = 0.5; slo_p95 = 0.1 })
  | [ "slo"; rate; p95 ] -> (
      match (float_of_string_opt rate, float_of_string_opt p95) with
      | Some r, Some p when Float.is_finite r && Float.is_finite p && r >= 0.0 && p > 0.0 ->
          Ok (Slo_violation { Timeline.slo_abort_rate = r; slo_p95 = p })
      | _ -> Error (Printf.sprintf "bad slo spec: %s" spec))
  | [ "regime" ] -> Ok (Regime "throughput")
  | [ "regime"; series ] ->
      if List.mem series Timeline.series_names then Ok (Regime series)
      else Error (Printf.sprintf "unknown timeline series: %s" series)
  | _ -> Error (Printf.sprintf "unknown trigger (want abort_rate:X | slo[:RATE:P95] | regime[:SERIES]): %s" spec)

type incident = {
  in_trigger : string;
  in_window : int;
  in_ts : float;
  in_detail : string;
}

(* Per-class accumulation for the SLO trigger (one window's worth). *)
type cls_state = { mutable cs_commits : int; mutable cs_aborts : int; cs_lat : Obs.hist }

(* Build (note, eval) for a trigger: [note] folds one event into the
   current window's state, [eval w] closes window [w] — returning the
   firing evidence if the predicate holds — and resets the state. *)
let make_trigger trigger ~window ?horizon events certs =
  match trigger with
  | Abort_storm thr ->
      let commits = ref 0 and aborts = ref 0 in
      let note _ts e =
        match e with
        | Obs.Txn_commit _ -> incr commits
        | Obs.Txn_abort { reason; _ } when reason <> "user-abort" -> incr aborts
        | _ -> ()
      in
      let eval _w =
        let c = !commits and a = !aborts in
        commits := 0;
        aborts := 0;
        if a > 0 && float_of_int a /. float_of_int (c + a) >= thr then
          Some
            (Printf.sprintf "abort-rate %s >= %s (%d error aborts / %d commits)"
               (num (float_of_int a /. float_of_int (c + a)))
               (num thr) a c)
        else None
      in
      (note, eval)
  | Slo_violation slo ->
      let tbl : (string, cls_state) Hashtbl.t = Hashtbl.create 8 in
      let state cls =
        match Hashtbl.find_opt tbl cls with
        | Some s -> s
        | None ->
            let s = { cs_commits = 0; cs_aborts = 0; cs_lat = Obs.hist_create () } in
            Hashtbl.add tbl cls s;
            s
      in
      let note _ts e =
        match e with
        | Obs.Class_outcome { cls; outcome; latency } -> (
            let s = state cls in
            match outcome with
            | "commit" | "user-abort" ->
                s.cs_commits <- s.cs_commits + 1;
                Obs.hist_add s.cs_lat latency
            | _ -> s.cs_aborts <- s.cs_aborts + 1)
        | _ -> ()
      in
      let eval _w =
        let classes =
          Hashtbl.fold (fun cls s acc -> (cls, s) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        Hashtbl.reset tbl;
        List.fold_left
          (fun acc (cls, s) ->
            match acc with
            | Some _ -> acc
            | None ->
                if s.cs_commits + s.cs_aborts = 0 then None
                else
                  let rate =
                    if s.cs_commits > 0 then
                      float_of_int s.cs_aborts /. float_of_int s.cs_commits
                    else if s.cs_aborts > 0 then infinity
                    else 0.0
                  in
                  let p95 =
                    if Obs.hist_count s.cs_lat = 0 then 0.0
                    else Obs.hist_percentile s.cs_lat 0.95
                  in
                  if rate > slo.Timeline.slo_abort_rate then
                    Some
                      (Printf.sprintf "class %s abort-rate %s > %s" cls (num rate)
                         (num slo.Timeline.slo_abort_rate))
                  else if p95 > slo.Timeline.slo_p95 then
                    Some
                      (Printf.sprintf "class %s p95 %s > %s" cls (num p95)
                         (num slo.Timeline.slo_p95))
                  else None)
          None classes
      in
      (note, eval)
  | Regime series ->
      (* Page–Hinkley is itself a streaming fold; running it over the built
         timeline first and replaying to the earliest mark gives the same
         firing window deterministically. *)
      let tl = Timeline.of_events ~window ?horizon events certs in
      let mark =
        match Timeline.change_points tl ~series with m :: _ -> Some m | [] -> None
      in
      let note _ts _e = () in
      let eval w =
        match mark with
        | Some mk when w >= mk.Timeline.mk_window ->
            Some
              (Printf.sprintf "page-hinkley %s mark on %s at window %d"
                 (match mk.Timeline.mk_direction with `Up -> "up" | `Down -> "down")
                 series mk.Timeline.mk_window)
        | _ -> None
      in
      (note, eval)

let run ~capacity ~window ?horizon ~trigger events certs =
  if not (window > 0.0) then invalid_arg "Flightrec.run: window width must be positive";
  let rc = create ~capacity in
  let idx ts =
    let i = int_of_float (Float.floor (ts /. window)) in
    if i < 0 then 0 else i
  in
  let note, eval = make_trigger trigger ~window ?horizon events certs in
  let fired = ref None in
  let cur = ref 0 in
  (* Close (evaluate + reset) every window in [!cur, target). *)
  let close_up_to target =
    while !fired = None && !cur < target do
      (match eval !cur with
      | Some detail ->
          freeze rc;
          fired :=
            Some
              {
                in_trigger = trigger_to_string trigger;
                in_window = !cur;
                in_ts = float_of_int (!cur + 1) *. window;
                in_detail = detail;
              }
      | None -> ());
      incr cur
    done
  in
  List.iter
    (fun (ts, e) ->
      if !fired = None then begin
        close_up_to (idx ts);
        if !fired = None then begin
          push rc ts e;
          note ts e
        end
      end)
    events;
  if !fired = None then close_up_to (!cur + 1);
  (rc, !fired)

(* {1 Bundle} *)

let write_bundle buf ~recorder ~incident ~sk ~top ~certs =
  Printf.bprintf buf "# flight-recorder post-mortem bundle\n";
  Printf.bprintf buf "trigger: %s\n" incident.in_trigger;
  Printf.bprintf buf "fired: window %d t=%s %s\n" incident.in_window (num incident.in_ts)
    incident.in_detail;
  Printf.bprintf buf "ring: %d events, %d dropped (capacity %d)\n" (length recorder)
    (drops recorder) (capacity recorder);
  Buffer.add_string buf "--- ring ---\n";
  List.iter
    (fun ev ->
      Buffer.add_string buf (Obs.event_json ev);
      Buffer.add_char buf '\n')
    (contents recorder);
  Buffer.add_string buf "--- contention ---\n";
  Attrib.render_summary buf sk;
  Attrib.render_table buf ~top sk;
  Buffer.add_string buf "--- dot ---\n";
  let dot =
    List.fold_left
      (fun acc c -> if c.Obs.c_ts <= incident.in_ts && c.Obs.c_dot <> "" then Some c.Obs.c_dot else acc)
      None certs
  in
  match dot with
  | Some d ->
      Buffer.add_string buf d;
      if String.length d = 0 || d.[String.length d - 1] <> '\n' then Buffer.add_char buf '\n'
  | None -> Buffer.add_string buf "none\n"
