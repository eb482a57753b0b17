(* Lock manager with the paper's SIREAD mode.

   Modes: S (shared), X (exclusive) and SIREAD. S and X behave as in a
   classical strict-2PL lock manager, with FIFO queuing and deadlock
   handling. SIREAD (§3.2) never blocks and never delays anyone; it is a
   lock-table *annotation* recording that an SI transaction read an item, so
   that a later X acquisition can detect the rw-dependency. The engine runs
   markConflict from two questions about a resource's entry: a reader asks
   for its X owner ({!x_owner}, O(1): X is exclusive, so each entry records
   its one X holder) and a writer walks its SIREAD holders
   ({!iter_siread_holders}, without building a list).

   Resources are strings; the engine encodes row keys, gap keys and page ids
   into them. Owners are integer transaction ids.

   Each hold is linked both into its entry and into its owner's list of
   holds (as in Ports & Grittner's PostgreSQL SSI, where a predicate lock
   is linked to its target and to its transaction), so granting, committing
   and cleaning up a transaction walk its own list and hash no resource
   name. Only the releases that can wake a waiter are ordered: their order
   is the one the per-owner hash index this list replaced gave them, and it
   is recomputed from the owner's record ({!holdings}).

   Deadlock detection is either [Immediate] (a waits-for cycle check on every
   block, InnoDB-style) or [Periodic dt] (a detector process that scans every
   [dt] simulated seconds, like Berkeley DB's db_perf setup in §6.1 — the
   detection delay is itself a measured effect in Fig 6.2). *)

type mode = S | X | Siread

let mode_to_string = function S -> "S" | X -> "X" | Siread -> "SIREAD"

type owner = int

let no_owner = min_int

exception Deadlock_victim

(* Only S-X, X-S and X-X block; SIREAD conflicts with nothing. *)
let blocks requested held =
  match (requested, held) with
  | X, X | X, S | S, X -> true
  | S, S | Siread, _ | _, Siread -> false

(* One owner's holds on one resource: a count of recursive acquisitions per
   mode. A hold sits on two lists: the chain of its bucket in the entry's
   owner table ([next]), and its owner's list of holds ([onext]/[oprev]). *)
type hold = {
  owner : owner;
  lock : lock; (* the entry this hold is on *)
  mutable s : int;
  mutable x : int;
  mutable siread : int;
  mutable next : hold; (* [nil] ends a chain *)
  mutable onext : hold; (* [nil] ends the owner's list *)
  mutable oprev : hold; (* [nil] at the head of the owner's list *)
}

(* A resource's lock-table entry. The holds form a chained hash table on the
   owner with the stdlib [Hashtbl]'s layout: 16 initial buckets, insertion at
   the head of a chain, and an order-preserving doubling once there are more
   than two holds per bucket. That layout fixes the order of {!holders} and
   {!iter_siread_holders}, and with it the order in which a writer marks
   conflicts, so it is part of the simulated outcome. *)
and lock = {
  resource : string;
  hash : int; (* [Hashtbl.hash resource]: fixes the release order *)
  mutable buckets : hold array;
  mutable n_holds : int;
  mutable x_owner : owner; (* the one owner holding X, or [no_owner] *)
  mutable queue : waiter list; (* FIFO: head is served first *)
  mutable listed : bool; (* on [t.queued] *)
}

(* One owner's holds, newest first, and what fixes the order its S/X holds
   are released in. A release that can grant a waiter must happen in the
   order the owner's resources had in the per-owner [Hashtbl] index this
   record replaces, since that order is the order waiters wake in. That
   index was created with 16 buckets when the owner first held something,
   doubled once it held more than two resources per bucket, never shrank,
   and was dropped by [release_all] and [transfer_sireads] once empty; its
   fold visited buckets in ascending order, each newest first, and release
   ran the fold reversed. [peak] fixes its bucket count, [Hashtbl.hash] of
   the resource (cached in the entry) the bucket, and the list's order the
   position in the bucket, so {!release_order} recomputes that order. *)
and holdings = {
  mutable first : hold; (* newest; [nil] when empty *)
  mutable live : int; (* holds on the list *)
  mutable peak : int; (* most holds on the list since the record was made *)
  mutable strong : int; (* holds with S or X *)
}

and waiter = { wowner : owner; wmode : mode; waker : Sim.waker }

(* [nil] stands for "no hold" and [no_lock] for "no entry": both hold
   nothing, and neither is ever in a table or a list. *)
let rec nil =
  {
    owner = no_owner;
    lock = no_lock;
    s = 0;
    x = 0;
    siread = 0;
    next = nil;
    onext = nil;
    oprev = nil;
  }

and no_lock =
  {
    resource = "(no lock)";
    hash = 0;
    buckets = [| nil |];
    n_holds = 0;
    x_owner = no_owner;
    queue = [];
    listed = false;
  }

and no_holdings = { first = nil; live = 0; peak = 0; strong = 0 }

let count_of h = function S -> h.s | X -> h.x | Siread -> h.siread

let is_strong h = h.s > 0 || h.x > 0

(* Whether another owner's hold [h] makes a request for [mode] wait. *)
let hold_blocks mode h =
  match mode with X -> is_strong h | S -> h.x > 0 | Siread -> false

let bucket_of l owner = Hashtbl.hash owner land (Array.length l.buckets - 1)

let find_hold l owner =
  let rec go h = if h == nil || h.owner = owner then h else go h.next in
  go l.buckets.(bucket_of l owner)

(* Double the bucket array. Each new chain keeps the relative order its
   holds had in the old chains, as the stdlib's resize does. *)
let resize l =
  let old = l.buckets in
  let n = 2 * Array.length old in
  let buckets = Array.make n nil and tails = Array.make n nil in
  l.buckets <- buckets;
  let rec move h =
    if h != nil then begin
      let next = h.next in
      let i = bucket_of l h.owner in
      if tails.(i) == nil then buckets.(i) <- h else tails.(i).next <- h;
      tails.(i) <- h;
      h.next <- nil;
      move next
    end
  in
  Array.iter move old

(* A new, empty hold of [o]'s owner on [l], at the head of its bucket chain
   and of the owner's list. *)
let add_hold l o owner =
  let i = bucket_of l owner in
  let h =
    {
      owner;
      lock = l;
      s = 0;
      x = 0;
      siread = 0;
      next = l.buckets.(i);
      onext = o.first;
      oprev = nil;
    }
  in
  l.buckets.(i) <- h;
  l.n_holds <- l.n_holds + 1;
  if l.n_holds > 2 * Array.length l.buckets then resize l;
  if o.first != nil then o.first.oprev <- h;
  o.first <- h;
  o.live <- o.live + 1;
  if o.live > o.peak then o.peak <- o.live;
  h

(* Unlink [h] from its entry's chain. *)
let unchain h =
  let l = h.lock in
  let i = bucket_of l h.owner in
  if l.buckets.(i) == h then l.buckets.(i) <- h.next
  else begin
    let rec unlink p =
      if p != nil then if p.next == h then p.next <- h.next else unlink p.next
    in
    unlink l.buckets.(i)
  end;
  l.n_holds <- l.n_holds - 1

(* Unlink [h] from its entry's chain and from its owner's list [o]. *)
let remove_hold o h =
  unchain h;
  if h.oprev == nil then o.first <- h.onext else h.oprev.onext <- h.onext;
  if h.onext != nil then h.onext.oprev <- h.oprev;
  o.live <- o.live - 1

(* [holds], some of [o]'s holds listed oldest first, in the order of the
   per-owner index's fold reversed: buckets descending, oldest first within
   a bucket. *)
let release_order o holds =
  let rec buckets n = if o.peak <= 2 * n then n else buckets (2 * n) in
  let mask = buckets 16 - 1 in
  List.stable_sort (fun a b -> compare (b.lock.hash land mask) (a.lock.hash land mask)) holds

(* Holds in bucket order, each chain from its head: the stdlib's fold
   order. *)
let rec fold_chain f h acc = if h == nil then acc else fold_chain f h.next (f h acc)

let fold_holds f l acc =
  let acc = ref acc in
  Array.iter (fun chain -> acc := fold_chain f chain !acc) l.buckets;
  !acc

let rec chain_conflicts ~owner ~mode h =
  h != nil && ((h.owner <> owner && hold_blocks mode h) || chain_conflicts ~owner ~mode h.next)

(* Would a request by [owner] for [mode] conflict with current holders? *)
let conflicts_with_holders l ~owner ~mode =
  match mode with
  | Siread -> false
  | S -> l.x_owner <> no_owner && l.x_owner <> owner
  | X ->
      let b = l.buckets and found = ref false in
      for i = 0 to Array.length b - 1 do
        if (not !found) && chain_conflicts ~owner ~mode b.(i) then found := true
      done;
      !found

type detection = Immediate | Periodic of float

type t = {
  sim : Sim.t;
  detection : detection;
  table : (string, lock) Hashtbl.t;
  (* One-entry cache of [table]: the engine names a resource once per access
     and asks several questions about it, so the lookups after the first
     compare one pointer. [last_lock] is [no_lock] when the entry is gone. *)
  mutable last_resource : string;
  mutable last_lock : lock;
  (* Each owner's holds, and a one-entry cache of this table, which the
     owner that is running hits. *)
  owners : (owner, holdings) Hashtbl.t;
  mutable last_owner : owner;
  mutable last_holdings : holdings;
  (* Every entry that has had a queue since the last waits-for scan
     ([listed]); the scan drops those whose queue is empty. *)
  mutable queued : lock list;
  waiting : (owner, string) Hashtbl.t; (* owner -> resource it blocks on *)
  mutable requests : int;
  mutable waits : int;
  mutable deadlocks : int;
  mutable detector_running : bool;
  mutable obs : Obs.t; (* observability sink; Obs.disabled costs one branch *)
  (* Footprint hook for the DPOR explorer: called on every acquisition with
     the owner, whether the access is a write (X; S and SIREAD are reads)
     and the resource. [None] (the default) costs one branch per request. *)
  mutable on_touch : (int -> bool -> string -> unit) option;
}

let create ?(detection = Immediate) sim =
  {
    sim;
    detection;
    table = Hashtbl.create 4096;
    last_resource = no_lock.resource;
    last_lock = no_lock;
    owners = Hashtbl.create 256;
    last_owner = no_owner;
    last_holdings = no_holdings;
    queued = [];
    waiting = Hashtbl.create 64;
    requests = 0;
    waits = 0;
    deadlocks = 0;
    detector_running = false;
    obs = Obs.disabled;
    on_touch = None;
  }

let set_obs t obs = t.obs <- obs

let set_on_touch t f = t.on_touch <- f

(* [owner]'s record, or [no_holdings]. *)
let find_holdings t owner =
  if owner = t.last_owner then t.last_holdings
  else
    match Hashtbl.find t.owners owner with
    | o ->
        t.last_owner <- owner;
        t.last_holdings <- o;
        o
    | exception Not_found -> no_holdings

let get_holdings t owner =
  let o = find_holdings t owner in
  if o != no_holdings then o
  else begin
    let o = { first = nil; live = 0; peak = 0; strong = 0 } in
    Hashtbl.replace t.owners owner o;
    t.last_owner <- owner;
    t.last_holdings <- o;
    o
  end

let drop_holdings t owner =
  Hashtbl.remove t.owners owner;
  if t.last_owner = owner then begin
    t.last_owner <- no_owner;
    t.last_holdings <- no_holdings
  end

let rec fold_owned f h acc = if h == nil then acc else fold_owned f h.onext (f h acc)

(* Every resource [owner] currently holds at least one mode on (sorted, so
   callers iterating it stay deterministic). *)
let owned_resources t owner =
  let o = find_holdings t owner in
  List.sort compare (fold_owned (fun h acc -> h.lock.resource :: acc) o.first [])

(* The entry for [resource], or [no_lock]. Allocates nothing. *)
let find_lock t resource =
  if resource == t.last_resource then t.last_lock
  else
    match Hashtbl.find t.table resource with
    | l ->
        t.last_resource <- resource;
        t.last_lock <- l;
        l
    | exception Not_found -> no_lock

let get_lock t resource =
  let l = find_lock t resource in
  if l != no_lock then l
  else begin
    let l =
      {
        resource;
        hash = Hashtbl.hash resource;
        buckets = Array.make 16 nil;
        n_holds = 0;
        x_owner = no_owner;
        queue = [];
        listed = false;
      }
    in
    Hashtbl.replace t.table resource l;
    t.last_resource <- resource;
    t.last_lock <- l;
    l
  end

(* Drop an entry nobody holds or waits for. *)
let drop_lock t l =
  Hashtbl.remove t.table l.resource;
  if t.last_lock == l then begin
    t.last_resource <- no_lock.resource;
    t.last_lock <- no_lock
  end

(* Drop [l] if nobody holds or waits for it any more. *)
let drop_if_unused t l = if l.n_holds = 0 && l.queue = [] then drop_lock t l

(* Modes currently held by [owner] on [resource]. *)
let holds_of t ~owner resource =
  let h = find_hold (find_lock t resource) owner in
  List.filter (fun m -> count_of h m > 0) [ X; S; Siread ]

let holds t ~owner ~mode resource = count_of (find_hold (find_lock t resource) owner) mode > 0

let holders t resource =
  fold_holds
    (fun h acc ->
      let acc = if h.x > 0 then (h.owner, X) :: acc else acc in
      let acc = if h.s > 0 then (h.owner, S) :: acc else acc in
      if h.siread > 0 then (h.owner, Siread) :: acc else acc)
    (find_lock t resource) []

let x_owner t resource = (find_lock t resource).x_owner

(* The reverse of the fold order, which is {!holders}' order: chains from
   the last bucket down, each from its tail. *)
let rec iter_siread_chain f h =
  if h != nil then begin
    iter_siread_chain f h.next;
    if h.siread > 0 then f h.owner
  end

let iter_siread_holders t resource f =
  let b = (find_lock t resource).buckets in
  for i = Array.length b - 1 downto 0 do
    iter_siread_chain f b.(i)
  done

let conflicts_with_queue l ~owner ~mode =
  List.exists
    (fun w -> (not (Sim.waker_fired w.waker)) && w.wowner <> owner && blocks mode w.wmode)
    l.queue

(* Grant [mode] to [owner], whose hold on [l] is [h] ([nil] if it has
   none yet). *)
let grant t l h ~owner ~mode =
  let h = if h != nil then h else add_hold l (get_holdings t owner) owner in
  match mode with
  | Siread -> h.siread <- h.siread + 1
  | S | X ->
      if not (is_strong h) then begin
        let o = find_holdings t owner in
        o.strong <- o.strong + 1
      end;
      if mode = S then h.s <- h.s + 1
      else begin
        h.x <- h.x + 1;
        l.x_owner <- owner
      end

(* Blocked owners and who they wait for: edges from a waiter to every
   conflicting holder and every conflicting earlier waiter. Only entries
   with a queue can contribute, so the scan visits [t.queued], dropping the
   entries whose queue has emptied. Edge order is not observable: every
   consumer sorts the edges or only asks whether a cycle exists. *)
let waits_for_edges t =
  let edges = ref [] in
  t.queued <-
    List.filter
      (fun l ->
        l.listed <- l.queue <> [];
        l.listed)
      t.queued;
  List.iter
    (fun l ->
      let earlier = ref [] in
      List.iter
        (fun w ->
          if not (Sim.waker_fired w.waker) then begin
            fold_holds
              (fun h () ->
                if h.owner <> w.wowner && hold_blocks w.wmode h then
                  edges := (w.wowner, h.owner) :: !edges)
              l ();
            List.iter
              (fun w' ->
                if w'.wowner <> w.wowner && blocks w.wmode w'.wmode then
                  edges := (w.wowner, w'.wowner) :: !edges)
              !earlier;
            earlier := w :: !earlier
          end)
        l.queue)
    t.queued;
  !edges

(* Is [start] part of a waits-for cycle reachable from itself? *)
let in_cycle edges start =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      let cur = try Hashtbl.find adj a with Not_found -> [] in
      Hashtbl.replace adj a (b :: cur))
    edges;
  let visited = Hashtbl.create 16 in
  let rec dfs node =
    if node = start then true
    else if Hashtbl.mem visited node then false
    else begin
      Hashtbl.replace visited node ();
      let succs = try Hashtbl.find adj node with Not_found -> [] in
      List.exists dfs succs
    end
  in
  let succs = try Hashtbl.find adj start with Not_found -> [] in
  List.exists dfs succs

(* Find all cycles' members: owners that can reach themselves. *)
let cycle_members edges =
  let owners = List.sort_uniq compare (List.map fst edges) in
  List.filter (fun o -> in_cycle edges o) owners

(* The actual waits-for cycle through [start]: a path [start; a; b; ...]
   where each owner waits for the next and the last waits for [start].
   Successors are explored in sorted order so the extracted witness is
   deterministic. Returns [[start]] if no cycle exists (defensive; callers
   only ask after {!in_cycle}). *)
let cycle_path edges start =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      let cur = try Hashtbl.find adj a with Not_found -> [] in
      Hashtbl.replace adj a (b :: cur))
    edges;
  let succs n = List.sort_uniq compare (try Hashtbl.find adj n with Not_found -> []) in
  let visited = Hashtbl.create 16 in
  let rec dfs node path =
    let ss = succs node in
    if List.mem start ss then Some (List.rev path)
    else
      List.fold_left
        (fun acc s ->
          match acc with
          | Some _ -> acc
          | None ->
              if Hashtbl.mem visited s then None
              else begin
                Hashtbl.replace visited s ();
                dfs s (s :: path)
              end)
        None ss
  in
  match dfs start [ start ] with Some p -> p | None -> [ start ]

(* Certificate support: the resource each owner in [cycle] is blocked on.
   [extra] supplies the requester's own (owner, resource) pair when it has
   not been entered into [t.waiting] yet (Immediate detection fires before
   enqueueing). *)
let cycle_waits t ?extra cycle =
  List.filter_map
    (fun o ->
      match extra with
      | Some (o', r) when o' = o -> Some (o, r)
      | _ -> ( match Hashtbl.find_opt t.waiting o with Some r -> Some (o, r) | None -> None))
    cycle

(* DOT snapshot of the waits-for graph at deadlock time: every blocked owner
   and the edges that close the cycle; the victim is filled red. *)
let waits_dot t ?extra ~victim ~cycle edges =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph deadlock {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box fontname=\"monospace\"];\n";
  let owners =
    List.sort_uniq compare (cycle @ List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  let waits = cycle_waits t ?extra owners in
  List.iter
    (fun o ->
      let wait =
        match List.assoc_opt o waits with
        | Some r -> "\\nwaits: " ^ Obs.dot_escape r
        | None -> ""
      in
      let attrs =
        if o = victim then " color=red style=filled fillcolor=\"#ffdddd\""
        else if List.mem o cycle then " peripheries=2"
        else ""
      in
      Buffer.add_string buf (Printf.sprintf "  t%d [label=\"T%d%s\"%s];\n" o o wait attrs))
    owners;
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  t%d -> t%d;\n" a b))
    (List.sort_uniq compare edges);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Build and record the deadlock certificate: the cycle through [victim]
   (owners in wait order), each member's blocked resource, and a waits-for
   DOT snapshot. Only does work when the sink has provenance on. *)
let emit_deadlock_cert t ?extra ~victim edges =
  if Obs.provenance_on t.obs then begin
    let cycle = cycle_path edges victim in
    Obs.add_cert t.obs
      {
        Obs.c_ts = Sim.now t.sim;
        c_reason = "deadlock";
        c_cert =
          Obs.Deadlock_cycle
            { dc_victim = victim; dc_cycle = cycle; dc_waits = cycle_waits t ?extra cycle };
        c_dot = waits_dot t ?extra ~victim ~cycle edges;
      }
  end

let grant_waiters t l =
  (* FIFO: grant from the head while compatible; stop at the first blocked
     live waiter. Fired (killed) waiters are discarded. *)
  let rec go queue =
    match queue with
    | [] -> []
    | w :: rest ->
        if Sim.waker_fired w.waker then go rest
        else if conflicts_with_holders l ~owner:w.wowner ~mode:w.wmode then w :: rest
        else begin
          grant t l (find_hold l w.wowner) ~owner:w.wowner ~mode:w.wmode;
          Hashtbl.remove t.waiting w.wowner;
          Sim.wake t.sim w.waker;
          go rest
        end
  in
  l.queue <- go l.queue

let run_detector_pass t =
  let edges = waits_for_edges t in
  let victims = cycle_members edges in
  (* Kill the youngest (largest id) member of each cycle; killing one may
     break several cycles, which is fine — the next pass handles the rest. *)
  match List.rev (List.sort compare victims) with
  | [] -> 0
  | v :: _ -> (
      match Hashtbl.find_opt t.waiting v with
      | None -> 0
      | Some resource ->
          let l = find_lock t resource in
          let found = ref 0 in
          List.iter
            (fun w ->
              if w.wowner = v && not (Sim.waker_fired w.waker) then begin
                t.deadlocks <- t.deadlocks + 1;
                incr found;
                (* Certificate before the victim is removed from
                   [t.waiting], so its own blocked resource is cited. *)
                emit_deadlock_cert t ~victim:v edges;
                Hashtbl.remove t.waiting v;
                if Obs.tracing t.obs then
                  Obs.emit t.obs ~ts:(Sim.now t.sim) (Obs.Deadlock { victim = v; resource });
                Sim.kill t.sim w.waker Deadlock_victim
              end)
            l.queue;
          if l != no_lock then grant_waiters t l;
          !found)

let start_detector t =
  match t.detection with
  | Immediate -> ()
  | Periodic dt ->
      if not t.detector_running then begin
        t.detector_running <- true;
        (* The detector terminates once nothing is blocked (so simulations
           can drain their event queues); the next blocking request restarts
           it. *)
        let rec loop () =
          Sim.delay t.sim dt;
          let rec drain () = if run_detector_pass t > 0 then drain () in
          drain ();
          if Hashtbl.length t.waiting > 0 then loop () else t.detector_running <- false
        in
        Sim.spawn t.sim loop
      end

let acquire t ~owner ~mode resource =
  t.requests <- t.requests + 1;
  (match t.on_touch with Some f -> f owner (mode = X) resource | None -> ());
  let l = get_lock t resource in
  let h = find_hold l owner in
  (* Re-entrant and conversion requests by an existing holder must not queue
     behind strangers (a holder waiting behind someone who waits for it
     would self-deadlock); they only wait for conflicting *holders*, and
     when they do wait, they wait at the front of the queue. *)
  let already_holds = h.s > 0 || h.x > 0 || h.siread > 0 in
  if
    mode = Siread
    || (not (conflicts_with_holders l ~owner ~mode))
       && (already_holds || not (conflicts_with_queue l ~owner ~mode))
  then begin
    grant t l h ~owner ~mode;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~ts:(Sim.now t.sim)
        (Obs.Lock_acquire { owner; mode = mode_to_string mode; resource })
  end
  else begin
    t.waits <- t.waits + 1;
    (match t.detection with
    | Immediate ->
        (* Would waiting close a cycle? Check with the hypothetical edge set
           including our new wait. *)
        let hypothetical =
          let held_edges =
            fold_holds
              (fun h acc ->
                if h.owner <> owner && hold_blocks mode h then (owner, h.owner) :: acc else acc)
              l []
          in
          (* A conversion (already_holds) goes to the queue front: it never
             waits behind queued strangers, so they add no edges. *)
          let queue_edges =
            if already_holds then []
            else
              List.filter_map
                (fun w ->
                  if
                    (not (Sim.waker_fired w.waker))
                    && w.wowner <> owner && blocks mode w.wmode
                  then Some (owner, w.wowner)
                  else None)
                l.queue
          in
          held_edges @ queue_edges @ waits_for_edges t
        in
        if in_cycle hypothetical owner then begin
          (* Certificate first: the requester is the victim, and its wait is
             only hypothetical (never entered into [t.waiting]), so the
             resource is supplied explicitly. *)
          emit_deadlock_cert t ~extra:(owner, resource) ~victim:owner hypothetical;
          t.deadlocks <- t.deadlocks + 1;
          if Obs.tracing t.obs then
            Obs.emit t.obs ~ts:(Sim.now t.sim) (Obs.Deadlock { victim = owner; resource });
          raise Deadlock_victim
        end
    | Periodic _ -> start_detector t);
    Hashtbl.replace t.waiting owner resource;
    let blocked_at = Sim.now t.sim in
    if Obs.tracing t.obs then begin
      Obs.emit t.obs ~ts:blocked_at
        (Obs.Lock_block { owner; mode = mode_to_string mode; resource });
      Obs.emit t.obs ~ts:blocked_at
        (Obs.Span_b { tid = owner; name = "lock-wait"; cat = "lock" })
    end;
    let enqueue w =
      let entry = { wowner = owner; wmode = mode; waker = w } in
      if already_holds then l.queue <- entry :: l.queue
      else l.queue <- l.queue @ [ entry ];
      if not l.listed then begin
        l.listed <- true;
        t.queued <- l :: t.queued
      end
    in
    (try Sim.suspend t.sim enqueue
     with e ->
       Hashtbl.remove t.waiting owner;
       if Obs.tracing t.obs then
         Obs.emit t.obs ~ts:(Sim.now t.sim)
           (Obs.Span_e { tid = owner; name = "lock-wait"; cat = "lock" });
       raise e);
    (* When woken normally the grant was already performed by grant_waiters. *)
    if Obs.enabled t.obs then begin
      let now = Sim.now t.sim in
      if Obs.tracing t.obs then
        Obs.emit t.obs ~ts:now (Obs.Span_e { tid = owner; name = "lock-wait"; cat = "lock" });
      let waited = now -. blocked_at in
      Obs.emit t.obs ~ts:now
        (Obs.Lock_grant { owner; mode = mode_to_string mode; resource; waited })
    end
  end

(* Grant a SIREAD on [resource] to [owner] unless it holds one already;
   returns whether it granted. A grant counts and reports like {!acquire}. *)
let acquire_siread t ~owner resource =
  let l = find_lock t resource in
  let h = find_hold l owner in
  if h.siread > 0 then false
  else begin
    t.requests <- t.requests + 1;
    (match t.on_touch with Some f -> f owner false resource | None -> ());
    grant t (if l != no_lock then l else get_lock t resource) h ~owner ~mode:Siread;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~ts:(Sim.now t.sim)
        (Obs.Lock_acquire { owner; mode = mode_to_string Siread; resource });
    true
  end

let release_one t ~owner ~mode resource =
  let l = find_lock t resource in
  let h = find_hold l owner in
  if count_of h mode > 0 then begin
    let was_strong = is_strong h in
    (match mode with
    | S -> h.s <- 0
    | X ->
        h.x <- 0;
        l.x_owner <- no_owner
    | Siread -> h.siread <- 0);
    let o = find_holdings t owner in
    if was_strong && not (is_strong h) then o.strong <- o.strong - 1;
    if h.s = 0 && h.x = 0 && h.siread = 0 then remove_hold o h;
    grant_waiters t l;
    drop_if_unused t l
  end

(* The tail of a release of [h]'s S/X modes: a release that can wake a
   waiter (its entry has a queue) is put on [ordered] for {!wake_in_order};
   any other can finish now, in any order. Walks run newest first, so
   [ordered] lists oldest first. *)
let settle t ordered h =
  let l = h.lock in
  if l.queue <> [] then ordered := h :: !ordered else drop_if_unused t l

(* Finish the releases on [ordered] in the order of [o]'s old index, so
   waiters wake in the order they always did. *)
let wake_in_order t o ordered =
  List.iter
    (fun h ->
      grant_waiters t h.lock;
      drop_if_unused t h.lock)
    (release_order o ordered)

(* Release every lock [owner] holds, optionally keeping SIREAD entries (a
   committing SSI transaction keeps them while suspended, §3.3). The holds
   are found by walking the owner's list, not looked up. A kept SIREAD-only
   hold changes nothing, so an owner holding no S or X is done at once.
   Dropping a SIREAD grants nobody (no waiter waits for one), so only the
   releases of S/X holds whose entry has a queue are ordered
   ({!wake_in_order}). *)
let release_all ?(keep_siread = false) t owner =
  if Obs.tracing t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim) (Obs.Lock_release_all { owner; kept_siread = keep_siread });
  let o = find_holdings t owner in
  if o != no_holdings then begin
    let ordered = ref [] in
    if not keep_siread then begin
      (* The whole record goes: unchain each hold, leave the list as is. *)
      let rec walk h =
        if h != nil then begin
          let l = h.lock and strong = is_strong h in
          if h.x > 0 then l.x_owner <- no_owner;
          h.s <- 0;
          h.x <- 0;
          h.siread <- 0;
          unchain h;
          if strong then settle t ordered h
          else begin
            if l.queue <> [] then grant_waiters t l;
            drop_if_unused t l
          end;
          walk h.onext
        end
      in
      walk o.first;
      drop_holdings t owner
    end
    else begin
      let rec walk h =
        if h != nil then begin
          let next = h.onext in
          if is_strong h then begin
            if h.x > 0 then h.lock.x_owner <- no_owner;
            h.s <- 0;
            h.x <- 0;
            if h.siread = 0 then remove_hold o h;
            settle t ordered h
          end;
          walk next
        end
      in
      if o.strong > 0 then begin
        walk o.first;
        o.strong <- 0
      end;
      if o.live = 0 then drop_holdings t owner
    end;
    wake_in_order t o !ordered
  end

(* Move every SIREAD annotation of [owner] onto [to_owner], merging with any
   the target already holds there (SIREAD is a set-like annotation: one entry
   per (owner, resource) is enough). S/X holds are untouched — callers
   transfer only committed suspended owners, which hold nothing else. SIREAD
   blocks nobody, so no waiter can become grantable. Used by
   committed-transaction summarization to pool old owners' entries under one
   sentinel owner, bounding the lock table. Returns each transferred
   resource paired with whether the target already held a SIREAD there (the
   table shrinks by one entry in that case), in {!release_order}. *)
let transfer_sireads t ~owner ~to_owner =
  let o = find_holdings t owner in
  if o == no_holdings then []
  else begin
    let sireads = fold_owned (fun h acc -> if h.siread > 0 then h :: acc else acc) o.first [] in
    let moved =
      List.map
        (fun h ->
          let l = h.lock in
          h.siread <- 0;
          if not (is_strong h) then remove_hold o h;
          let th = find_hold l to_owner in
          let merged = th.siread > 0 in
          if th == nil then grant t l nil ~owner:to_owner ~mode:Siread
          else if not merged then th.siread <- 1;
          (l.resource, merged))
        (release_order o sireads)
    in
    if o.live = 0 then drop_holdings t owner;
    moved
  end

(* Abort an owner that is currently blocked: raise [exn] inside it. *)
let cancel_wait t owner exn =
  match Hashtbl.find_opt t.waiting owner with
  | None -> false
  | Some resource ->
      Hashtbl.remove t.waiting owner;
      let l = find_lock t resource in
      let found = ref false in
      List.iter
        (fun w ->
          if w.wowner = owner && not (Sim.waker_fired w.waker) then begin
            found := true;
            Sim.kill t.sim w.waker exn
          end)
        l.queue;
      if l != no_lock then grant_waiters t l;
      !found

let is_waiting t owner = Hashtbl.mem t.waiting owner

let lock_table_size t = Hashtbl.fold (fun _ l acc -> acc + l.n_holds) t.table 0

let requests t = t.requests

let waits t = t.waits

let deadlocks t = t.deadlocks

let reset_stats t =
  t.requests <- 0;
  t.waits <- 0;
  t.deadlocks <- 0
