(* Write-ahead log with group commit, logical redo records and deterministic
   crash injection.

   Commit durability dominates transaction response time in the paper's
   "long transactions" experiments (Fig 6.2-6.5): a synchronous log flush
   costs ~10ms, but one physical flush hardens every record appended before
   it was issued, so concurrent committers share flushes (group commit,
   enabled by default in both Berkeley DB and InnoDB).

   Since PR 6 the log carries logical redo records: appends buffer encoded
   frames into the open epoch, a physical flush (or a checkpoint / an
   explicit harden) moves whole epochs into the durable image, and a seeded
   crash plan can cut the run at a chosen append, mid-flush with a torn
   tail, or inside the commit window. Two invariants matter for recovery:

   - Epochs are sealed in order and hardened whole (except for the injected
     torn tail), so [durable_log] is always a byte-prefix of the log a
     crash-free run would have written.

   - Commit records are appended in commit-ts order (the engine allocates
     the ts and appends in one atomic simulated step), so the durable
     committed set is always a ts-prefix of the logged commits. *)

type mode =
  | No_flush (* commit returns once the record is buffered (Fig 6.1) *)
  | Flush_per_commit of float (* synchronous flush with given latency *)

(* {1 Logical records and the frame codec} *)

type record =
  | Begin of { txn : int }
  | Write of { txn : int; table : string; key : string; value : string }
  | Insert of { txn : int; table : string; key : string; value : string }
  | Delete of { txn : int; table : string; key : string }
  | Commit of { txn : int; ts : int }
  | Abort of { txn : int }
  | Checkpoint of { watermark : int; next_ts : int }

let header = "ssi-wal v1\n"

(* Payload fields are space-separated; any byte outside a conservative
   plain set is %HH-escaped so fields can carry spaces, newlines, '%' and
   arbitrary binary (the fuzzer generates such keys). *)
let plain c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | ',' | '~' | '/' | '-' -> true
  | _ -> false

let esc s =
  let n = String.length s in
  let plain_only = ref true in
  for i = 0 to n - 1 do
    if not (plain s.[i]) then plain_only := false
  done;
  if !plain_only then s
  else begin
    let buf = Buffer.create (n + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char buf c
        else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents buf
  end

let unesc s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  let ok = ref true in
  while !ok && !i < n do
    let c = s.[!i] in
    if c = '%' then
      if !i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
        | Some b when b >= 0 && b <= 255 -> Buffer.add_char buf (Char.chr b)
        | _ -> ok := false);
        i := !i + 3
      end
      else ok := false
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  if !ok then Some (Buffer.contents buf) else None

let payload_of_record r =
  match r with
  | Begin { txn } -> Printf.sprintf "B %d" txn
  | Write { txn; table; key; value } ->
      Printf.sprintf "W %d %s %s %s" txn (esc table) (esc key) (esc value)
  | Insert { txn; table; key; value } ->
      Printf.sprintf "I %d %s %s %s" txn (esc table) (esc key) (esc value)
  | Delete { txn; table; key } -> Printf.sprintf "D %d %s %s" txn (esc table) (esc key)
  | Commit { txn; ts } -> Printf.sprintf "C %d %d" txn ts
  | Abort { txn } -> Printf.sprintf "A %d" txn
  | Checkpoint { watermark; next_ts } -> Printf.sprintf "K %d %d" watermark next_ts

let frame r =
  let p = payload_of_record r in
  Printf.sprintf "%d:%s\n" (String.length p) p

let record_of_payload p =
  let fields = String.split_on_char ' ' p in
  let int_of s = int_of_string_opt s in
  match fields with
  | [ "B"; txn ] -> ( match int_of txn with Some txn -> Some (Begin { txn }) | None -> None)
  | [ "W"; txn; table; key; value ] -> (
      match (int_of txn, unesc table, unesc key, unesc value) with
      | Some txn, Some table, Some key, Some value -> Some (Write { txn; table; key; value })
      | _ -> None)
  | [ "I"; txn; table; key; value ] -> (
      match (int_of txn, unesc table, unesc key, unesc value) with
      | Some txn, Some table, Some key, Some value -> Some (Insert { txn; table; key; value })
      | _ -> None)
  | [ "D"; txn; table; key ] -> (
      match (int_of txn, unesc table, unesc key) with
      | Some txn, Some table, Some key -> Some (Delete { txn; table; key })
      | _ -> None)
  | [ "C"; txn; ts ] -> (
      match (int_of txn, int_of ts) with
      | Some txn, Some ts -> Some (Commit { txn; ts })
      | _ -> None)
  | [ "A"; txn ] -> ( match int_of txn with Some txn -> Some (Abort { txn }) | None -> None)
  | [ "K"; watermark; next_ts ] -> (
      match (int_of watermark, int_of next_ts) with
      | Some watermark, Some next_ts -> Some (Checkpoint { watermark; next_ts })
      | _ -> None)
  | _ -> None

let encode records =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  List.iter (fun r -> Buffer.add_string buf (frame r)) records;
  Buffer.contents buf

(* Decode a log image. Truncation anywhere — inside the header, inside a
   frame's length prefix, inside its payload, or before its terminating
   newline — is reported as a torn tail of that many bytes, never as an
   error; only in-bounds corruption is. *)
let decode s =
  let n = String.length s in
  let hn = String.length header in
  if n < hn then
    if String.equal s (String.sub header 0 n) then Ok ([], n)
    else Error "bad log header"
  else if not (String.equal (String.sub s 0 hn) header) then Error "bad log header"
  else begin
    let records = ref [] in
    let pos = ref hn in
    let result = ref None in
    while !result = None && !pos < n do
      let start = !pos in
      (* length prefix: digits up to ':' *)
      let j = ref start in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      if !j = start then result := Some (Error (Printf.sprintf "byte %d: expected frame length" start))
      else if !j >= n then result := Some (Ok (List.rev !records, n - start)) (* torn length *)
      else if s.[!j] <> ':' then
        result := Some (Error (Printf.sprintf "byte %d: expected ':' after frame length" !j))
      else begin
        let len = int_of_string (String.sub s start (!j - start)) in
        let p0 = !j + 1 in
        if p0 + len >= n + 1 then result := Some (Ok (List.rev !records, n - start)) (* torn payload *)
        else if p0 + len = n then result := Some (Ok (List.rev !records, n - start)) (* torn: missing \n *)
        else if s.[p0 + len] <> '\n' then
          result := Some (Error (Printf.sprintf "byte %d: frame not newline-terminated" (p0 + len)))
        else
          match record_of_payload (String.sub s p0 len) with
          | Some r ->
              records := r :: !records;
              pos := p0 + len + 1
          | None -> result := Some (Error (Printf.sprintf "byte %d: malformed record payload" p0))
      end
    done;
    match !result with Some r -> r | None -> Ok (List.rev !records, 0)
  end

(* {1 Crash plans} *)

type plan =
  | Crash_on_append of int
  | Crash_mid_flush of { flush : int; keep : int; torn : int }
  | Crash_at_commit_window of int

exception Crash

let plan_to_string = function
  | Crash_on_append n -> Printf.sprintf "append:%d" n
  | Crash_mid_flush { flush; keep; torn } -> Printf.sprintf "flush:%d:%d:%d" flush keep torn
  | Crash_at_commit_window n -> Printf.sprintf "window:%d" n

let plan_of_string s =
  match String.split_on_char ':' s with
  | [ "append"; n ] -> Option.map (fun n -> Crash_on_append n) (int_of_string_opt n)
  | [ "flush"; f; k; t ] -> (
      match (int_of_string_opt f, int_of_string_opt k, int_of_string_opt t) with
      | Some flush, Some keep, Some torn -> Some (Crash_mid_flush { flush; keep; torn })
      | _ -> None)
  | [ "window"; n ] -> Option.map (fun n -> Crash_at_commit_window n) (int_of_string_opt n)
  | _ -> None

(* {1 The log} *)

type t = {
  sim : Sim.t;
  mode : mode;
  mutable epoch : int; (* current open batch *)
  mutable flushed : int; (* highest hardened batch *)
  mutable flusher_active : bool;
  flushed_cond : Sim.cond;
  mutable pending : (int * record) list; (* (epoch, record), newest first *)
  durable : Buffer.t; (* the durable log image, header included *)
  mutable appends : int;
  mutable flushes : int;
  mutable checkpoints : int;
  mutable windows : int;
  mutable plan : plan option;
  (* Trigger counters, zeroed by [arm] so fault plans count from the arming
     point (after Db.load), not from db creation. *)
  mutable p_appends : int;
  mutable p_flushes : int;
  mutable p_windows : int;
  mutable obs : Obs.t; (* observability sink; Obs.disabled costs one branch *)
}

let create sim ~mode =
  let durable = Buffer.create 1024 in
  Buffer.add_string durable header;
  {
    sim;
    mode;
    epoch = 0;
    flushed = -1;
    flusher_active = false;
    flushed_cond = Sim.cond ();
    pending = [];
    durable;
    appends = 0;
    flushes = 0;
    checkpoints = 0;
    windows = 0;
    plan = None;
    p_appends = 0;
    p_flushes = 0;
    p_windows = 0;
    obs = Obs.disabled;
  }

let set_obs t obs = t.obs <- obs

let mode t = t.mode

let arm t plan =
  t.plan <- Some plan;
  t.p_appends <- 0;
  t.p_flushes <- 0;
  t.p_windows <- 0

let crash t plan =
  if Obs.tracing t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim) (Obs.Crash_inject { plan = plan_to_string plan });
  raise Crash

(* Buffer a log record; cheap, cost accounted by the caller's CPU model.
   A matching [Crash_on_append] fires *instead of* the append: the record
   is never buffered, modeling a failure before the in-memory log write. *)
let append t r =
  (match t.plan with
  | Some (Crash_on_append n as p) ->
      t.p_appends <- t.p_appends + 1;
      if t.p_appends = n then crash t p
  | Some _ -> t.p_appends <- t.p_appends + 1
  | None -> ());
  t.pending <- (t.epoch, r) :: t.pending;
  t.appends <- t.appends + 1

(* Move every pending record of epoch <= target into the durable image.
   [pending] is newest-first and epochs only grow, so the kept/hardened
   split preserves append order (the hardened part is an exact prefix of
   the pending log). *)
let harden_upto t target =
  let hardened, kept = List.partition (fun (e, _) -> e <= target) t.pending in
  t.pending <- kept;
  List.iter (fun (_, r) -> Buffer.add_string t.durable (frame r)) (List.rev hardened);
  if t.flushed < target then t.flushed <- target

(* Injected mid-flush failure: harden [keep] whole frames of the sealed
   batch plus [torn] bytes of the following frame, then crash. Clamped so
   the tear is always a strict frame prefix (a whole extra frame would be a
   clean boundary, not a tear). *)
let tear_and_crash t target ~keep ~torn plan =
  let batch = List.rev (List.filter (fun (e, _) -> e <= target) t.pending) in
  let frames = List.map (fun (_, r) -> frame r) batch in
  let keep = max 0 (min keep (List.length frames)) in
  List.iteri (fun i f -> if i < keep then Buffer.add_string t.durable f) frames;
  (match List.nth_opt frames keep with
  | Some f when torn > 0 ->
      let torn = min torn (String.length f - 1) in
      Buffer.add_string t.durable (String.sub f 0 torn)
  | _ -> ());
  crash t plan

let rec ensure_flushed t ~latency ~upto =
  if t.flushed >= upto then ()
  else if t.flusher_active then begin
    Sim.wait t.sim t.flushed_cond;
    ensure_flushed t ~latency ~upto
  end
  else begin
    (* Become the flush leader: seal the open batch, write it, repeat while
       our own record is still unhardened. *)
    t.flusher_active <- true;
    let target = t.epoch in
    t.epoch <- t.epoch + 1;
    Sim.delay t.sim latency;
    t.flushes <- t.flushes + 1;
    (match t.plan with
    | Some (Crash_mid_flush { flush; keep; torn } as p) ->
        t.p_flushes <- t.p_flushes + 1;
        if t.p_flushes = flush then tear_and_crash t target ~keep ~torn p
    | Some _ -> t.p_flushes <- t.p_flushes + 1
    | None -> ());
    harden_upto t target;
    if Obs.enabled t.obs then
      Obs.emit t.obs ~ts:(Sim.now t.sim)
        (Obs.Wal_flush { epoch = target; latency; queued = List.length t.pending });
    t.flusher_active <- false;
    Sim.broadcast t.sim t.flushed_cond;
    ensure_flushed t ~latency ~upto
  end

(* Make every record appended so far durable; returns when a flush covering
   the caller's batch completes. *)
let commit_flush t =
  match t.mode with
  | No_flush -> ()
  | Flush_per_commit latency -> ensure_flushed t ~latency ~upto:t.epoch

let commit_window_check t =
  t.windows <- t.windows + 1;
  match t.plan with
  | Some (Crash_at_commit_window n as p) ->
      t.p_windows <- t.p_windows + 1;
      if t.p_windows = n then crash t p
  | Some _ -> t.p_windows <- t.p_windows + 1
  | None -> ()

(* Checkpoints model background I/O that overlaps normal processing, so
   they take no simulated time: seal the open batch (records of an epoch an
   in-flight group flush already sealed may be hardened here first; the
   flush leader's later [harden_upto] then finds them gone and the
   max-guard on [flushed] keeps the watermark monotone) and write it plus
   the checkpoint record synchronously. *)
let checkpoint t ~watermark ~next_ts =
  t.pending <- (t.epoch, Checkpoint { watermark; next_ts }) :: t.pending;
  let target = t.epoch in
  t.epoch <- t.epoch + 1;
  harden_upto t target;
  t.checkpoints <- t.checkpoints + 1;
  if Obs.enabled t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim)
      (Obs.Wal_checkpoint { epoch = target; watermark; next_ts })

let harden t =
  let target = t.epoch in
  t.epoch <- t.epoch + 1;
  harden_upto t target

let durable_log t = Buffer.contents t.durable

let durable_bytes t = Buffer.length t.durable

let appends t = t.appends

let flushes t = t.flushes

let checkpoints t = t.checkpoints

let commit_windows t = t.windows

(* Events seen since [arm] — the trigger-counter values a fault plan indexes
   into. Arming a plan that can never fire (e.g. [Crash_on_append max_int])
   turns a crash-free run into a census of its crashable points. *)
let armed_appends t = t.p_appends

let armed_flushes t = t.p_flushes

let armed_windows t = t.p_windows

(* Counters only. The buffered batch, durable image and epoch/flush
   bookkeeping survive a reset: zeroing [epoch]/[flushed] here (or dropping
   [pending]) while a group flush is in flight would lose the in-flight
   batch — pinned by test_recovery's reset_stats regression. *)
let reset_stats t =
  t.appends <- 0;
  t.flushes <- 0;
  t.checkpoints <- 0;
  t.windows <- 0
