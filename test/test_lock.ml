(* Tests for the lock manager: conflict matrix, FIFO queuing, SIREAD
   non-blocking behaviour, upgrades, deadlock detection (immediate and
   periodic), wait cancellation, and a model-based check of the
   X-owner/holds/SIREAD-holder queries. *)

let with_sim f =
  let sim = Sim.create () in
  f sim;
  Sim.run sim

let test_conflict_matrix () =
  let open Lockmgr in
  Alcotest.(check bool) "S blocks X" true (blocks S X);
  Alcotest.(check bool) "X blocks S" true (blocks X S);
  Alcotest.(check bool) "X blocks X" true (blocks X X);
  Alcotest.(check bool) "S with S" false (blocks S S);
  Alcotest.(check bool) "SIREAD never blocked by X" false (blocks Siread X);
  Alcotest.(check bool) "X never blocked by SIREAD" false (blocks X Siread);
  Alcotest.(check bool) "SIREAD with SIREAD" false (blocks Siread Siread);
  Alcotest.(check bool) "S with SIREAD" false (blocks S Siread)

let test_shared_locks_coexist () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let granted = ref 0 in
      for i = 1 to 3 do
        Sim.spawn sim (fun () ->
            Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.S "a";
            incr granted)
      done;
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Alcotest.(check int) "all S granted" 3 !granted;
          Alcotest.(check int) "table size" 3 (Lockmgr.lock_table_size lm)))

let test_x_blocks_until_release () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let t2_got_it = ref (-1.0) in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 5.0;
          Lockmgr.release_all lm 1);
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          t2_got_it := Sim.now sim);
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check (float 1e-9)) "granted at release" 5.0 !t2_got_it))

let test_siread_never_blocks () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          (* SIREAD grants instantly although X is held. *)
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.Siread "a";
          Alcotest.(check (float 0.0)) "no time passed" 0.0 (Sim.now sim);
          let holders = List.sort compare (Lockmgr.holders lm "a") in
          Alcotest.(check (list (pair int string)))
            "both recorded"
            [ (1, "X"); (2, "SIREAD") ]
            (List.map (fun (o, m) -> (o, Lockmgr.mode_to_string m)) holders)))

let test_x_granted_over_siread () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.Siread "a";
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          Alcotest.(check (float 0.0)) "X not delayed by SIREAD" 0.0 (Sim.now sim)))

let test_fifo_no_starvation () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let order = ref [] in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 1.0;
          Lockmgr.release_all lm 1);
      (* Writer queues at t=0.1; readers at t=0.2 must not jump it. *)
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.1;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          order := 2 :: !order;
          Sim.delay sim 1.0;
          Lockmgr.release_all lm 2);
      for i = 3 to 4 do
        Sim.spawn sim (fun () ->
            Sim.delay sim 0.2;
            Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.S "a";
            order := i :: !order;
            Lockmgr.release_all lm i)
      done;
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check (list int)) "writer first, readers after" [ 2; 3; 4 ] (List.rev !order)))

let test_reentrant () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "a";
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "a";
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a" (* self-upgrade, no block *);
          Alcotest.(check (float 0.0)) "no blocking on own locks" 0.0 (Sim.now sim);
          let modes = List.sort compare (Lockmgr.holds_of lm ~owner:1 "a") in
          Alcotest.(check int) "holds two modes" 2 (List.length modes)))

let test_upgrade_waits_for_other_s () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let upgraded = ref (-1.0) in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "a";
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.S "a" |> ignore;
          ());
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.1;
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          upgraded := Sim.now sim);
      Sim.spawn sim (fun () ->
          Sim.delay sim 2.0;
          Lockmgr.release_all lm 2);
      Sim.schedule sim ~after:5.0 (fun () ->
          Alcotest.(check (float 1e-9)) "upgrade granted when other S released" 2.0 !upgraded))

let test_immediate_deadlock () =
  with_sim (fun sim ->
      let lm = Lockmgr.create ~detection:Lockmgr.Immediate sim in
      let victim = ref 0 in
      let a_done = ref false in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 1.0;
          (try
             Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "b";
             a_done := true
           with Lockmgr.Deadlock_victim ->
             victim := 1;
             Lockmgr.release_all lm 1));
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "b";
          Sim.delay sim 2.0;
          (try Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a"
           with Lockmgr.Deadlock_victim -> victim := 2);
          Lockmgr.release_all lm 2);
      Sim.schedule sim ~after:10.0 (fun () ->
          (* T1 blocks on b at t=1 (no cycle yet); T2's request at t=2 would
             close the cycle, so T2 is the victim. *)
          Alcotest.(check int) "requester is victim" 2 !victim;
          Alcotest.(check bool) "T1 eventually granted" true !a_done;
          Alcotest.(check int) "one deadlock counted" 1 (Lockmgr.deadlocks lm)))

let test_periodic_deadlock () =
  with_sim (fun sim ->
      let lm = Lockmgr.create ~detection:(Lockmgr.Periodic 0.5) sim in
      let victim_time = ref (-1.0) in
      let survivor_done = ref false in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 0.1;
          (try
             Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "b";
             survivor_done := true;
             Lockmgr.release_all lm 1
           with Lockmgr.Deadlock_victim -> Alcotest.fail "older txn should survive"));
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "b";
          Sim.delay sim 0.1;
          (try Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a"
           with Lockmgr.Deadlock_victim ->
             victim_time := Sim.now sim;
             Lockmgr.release_all lm 2));
      Sim.schedule sim ~after:10.0 (fun () ->
          (* Both blocked by t=0.1; the detector starts at the first block
             and fires one interval later (t=0.6), killing the youngest
             (owner 2). *)
          Alcotest.(check (float 1e-6)) "victim killed at detector tick" 0.6 !victim_time;
          Alcotest.(check bool) "survivor completed" true !survivor_done))

let test_cancel_wait () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let cancelled = ref false in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 5.0;
          Lockmgr.release_all lm 1);
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.5;
          try Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a"
          with Not_found -> cancelled := true);
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Alcotest.(check bool) "waiting" true (Lockmgr.is_waiting lm 2);
          Alcotest.(check bool) "cancelled" true (Lockmgr.cancel_wait lm 2 Not_found));
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check bool) "exception delivered" true !cancelled;
          Alcotest.(check bool) "no longer waiting" false (Lockmgr.is_waiting lm 2)))

let test_release_keeps_siread () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.Siread "a";
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "b";
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "c";
          Lockmgr.release_all ~keep_siread:true lm 1;
          Alcotest.(check (list (pair int string)))
            "SIREAD survives"
            [ (1, "SIREAD") ]
            (List.map (fun (o, m) -> (o, Lockmgr.mode_to_string m)) (Lockmgr.holders lm "a"));
          Alcotest.(check (list (pair int string))) "X gone" [] (List.map (fun (o, m) -> (o, Lockmgr.mode_to_string m)) (Lockmgr.holders lm "b"));
          Lockmgr.release_all lm 1;
          Alcotest.(check int) "empty table" 0 (Lockmgr.lock_table_size lm)))

let test_release_wakes_waiter () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let got = ref (-1.0) in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 1.0;
          Lockmgr.release_one lm ~owner:1 ~mode:Lockmgr.X "a");
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.1;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.S "a";
          got := Sim.now sim);
      Sim.schedule sim ~after:5.0 (fun () ->
          Alcotest.(check (float 1e-9)) "woken on release_one" 1.0 !got))

let test_three_way_deadlock_periodic () =
  with_sim (fun sim ->
      let lm = Lockmgr.create ~detection:(Lockmgr.Periodic 0.5) sim in
      let victims = ref [] in
      let completions = ref 0 in
      for i = 1 to 3 do
        Sim.spawn sim (fun () ->
            let mine = string_of_int i in
            let next = string_of_int ((i mod 3) + 1) in
            Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.X mine;
            Sim.delay sim 0.1;
            (try
               Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.X next;
               incr completions
             with Lockmgr.Deadlock_victim -> victims := i :: !victims);
            Lockmgr.release_all lm i)
      done;
      Sim.schedule sim ~after:20.0 (fun () ->
          Alcotest.(check int) "one victim breaks the 3-cycle" 1 (List.length !victims);
          Alcotest.(check int) "others complete" 2 !completions))


let test_reentrant_bypasses_queue () =
  (* Regression: an owner re-requesting a mode it already effectively holds
     must not queue behind strangers waiting for it (self-deadlock). *)
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let reacquired = ref (-1.0) in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 1.0;
          (* Owner 2 is queued for X by now; our re-request must succeed
             immediately, not deadlock. *)
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          reacquired := Sim.now sim;
          Lockmgr.release_all lm 1);
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.5;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          Lockmgr.release_all lm 2);
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check (float 1e-9)) "instant re-grant" 1.0 !reacquired;
          Alcotest.(check int) "no deadlock" 0 (Lockmgr.deadlocks lm)))

let test_conversion_goes_to_queue_front () =
  (* An S holder converting to X waits only for the other S holder, then is
     served before the stranger X waiter who arrived earlier. *)
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let order = ref [] in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "a";
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.S "a";
          ());
      (* Stranger X waiter arrives first. *)
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.1;
          Lockmgr.acquire lm ~owner:3 ~mode:Lockmgr.X "a";
          order := 3 :: !order;
          Lockmgr.release_all lm 3);
      (* Holder 1 requests conversion later. *)
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.2;
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          order := 1 :: !order;
          Lockmgr.release_all lm 1);
      (* Holder 2 releases, unblocking the conversion. *)
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Lockmgr.release_all lm 2);
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check (list int)) "conversion first" [ 1; 3 ] (List.rev !order)))

let test_siread_retained_vs_new_x () =
  (* A suspended owner's SIREAD must be visible to later X acquirers. *)
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.Siread "a";
          Lockmgr.release_all ~keep_siread:true lm 1;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          let holders = List.sort compare (Lockmgr.holders lm "a") in
          Alcotest.(check (list (pair int string)))
            "both visible"
            [ (1, "SIREAD"); (2, "X") ]
            (List.map (fun (o, m) -> (o, Lockmgr.mode_to_string m)) holders)))

let test_dropped_entry_not_reused () =
  (* The last entry found is cached; once released away it must not serve
     the next request on the same string. *)
  let lm = Lockmgr.create (Sim.create ()) in
  let r = "a" in
  Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X r;
  Lockmgr.release_all lm 1;
  Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.S r;
  Alcotest.(check int) "table size" 1 (Lockmgr.lock_table_size lm);
  Alcotest.(check int) "no X owner" Lockmgr.no_owner (Lockmgr.x_owner lm r);
  Alcotest.(check bool) "S held" true (Lockmgr.holds lm ~owner:2 ~mode:Lockmgr.S "a")

(* {1 Release order}

   Releasing an S or X hold wakes the entry's waiters, so the order of a
   full release is the order in which waiters resume. That order is the one
   of the per-owner index the lock manager once kept: a stdlib
   [(string, unit) Hashtbl.t] created with 16 buckets, a resource added
   with [replace] when the owner gains its first mode on it and removed
   when the owner holds none, and the release running that table's fold
   reversed. *)

let old_index_release_order index = Hashtbl.fold (fun r () acc -> r :: acc) index []

(* Owner 1 takes S or X on 40 resources and SIREAD-only holds on 6 more,
   which grows the old index to 32 buckets, then gives up 16 with
   [release_one] and takes 2 more: 32 holds, which alone would fit in 16
   buckets. A waiter then blocks on each S/X resource, and
   [release_all ~keep_siread] must wake them in the old index's order. *)
let check_release_wake_order ~keep_siread () =
  let sim = Sim.create () in
  let lm = Lockmgr.create sim in
  let index = Hashtbl.create 16 in
  let name i = Printf.sprintf "r/t/%d" i in
  let mode i = if i mod 3 = 0 then Lockmgr.S else Lockmgr.X in
  let take i m =
    Lockmgr.acquire lm ~owner:1 ~mode:m (name i);
    Hashtbl.replace index (name i) ()
  in
  let released = List.init 16 (fun k -> (2 * k) + 1) in
  let held =
    List.filter (fun i -> not (List.mem i released)) (List.init 40 Fun.id) @ [ 46; 47 ]
  in
  let woken = ref [] and expected = ref [] in
  Sim.spawn sim (fun () ->
      for i = 0 to 39 do
        take i (mode i);
        if i mod 7 = 0 then take (40 + (i / 7)) Lockmgr.Siread
      done;
      List.iter
        (fun i ->
          Lockmgr.release_one lm ~owner:1 ~mode:(mode i) (name i);
          Hashtbl.remove index (name i))
        released;
      take 46 Lockmgr.X;
      take 47 Lockmgr.S;
      Alcotest.(check int) "holds" 32 (Hashtbl.length index);
      Sim.delay sim 2.0;
      expected :=
        List.filter (fun r -> List.mem r (List.map name held)) (old_index_release_order index);
      Lockmgr.release_all ~keep_siread lm 1);
  List.iteri
    (fun k i ->
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Lockmgr.acquire lm ~owner:(100 + k) ~mode:Lockmgr.X (name i);
          woken := name i :: !woken;
          Lockmgr.release_all lm (100 + k)))
    held;
  Sim.run sim;
  Alcotest.(check int) "every waiter woke" (List.length held) (List.length !woken);
  Alcotest.(check (list string)) "wake order" !expected (List.rev !woken)

(* {1 Model-based check of the non-allocating queries}

   Random sequences of non-blocking lock operations run against the lock
   manager and against a model that keeps each resource's holds in a stdlib
   [Hashtbl] (created with size 4, an entry added with [replace] when an
   owner gains its first mode, removed when it holds none, the resource
   forgotten when nobody holds it). After every step, [holders] must list
   the model's holds in the model's fold order, and [x_owner], [holds] and
   [iter_siread_holders] (contents and order) must agree with
   [holders]/[holds_of], without changing [lock_table_size]. A second
   model, [index], keeps each owner's old per-owner index (see
   {!old_index_release_order}; the index is dropped once [release_all] or
   [transfer_sireads] leaves it empty), and [transfer_sireads] must return
   the moved resources in that index's release order. *)

type op =
  | Acquire of int * Lockmgr.mode * string
  | Release_one of int * Lockmgr.mode * string
  | Release_all of int * bool
  | Transfer of int * int

let resources = [ "a"; "b"; "c"; "d" ]

(* Enough owners to grow the holder table of "a" past 32 holds. *)
let n_owners = 72

let show_op = function
  | Acquire (o, m, r) -> Printf.sprintf "acquire %d %s %s" o (Lockmgr.mode_to_string m) r
  | Release_one (o, m, r) -> Printf.sprintf "release_one %d %s %s" o (Lockmgr.mode_to_string m) r
  | Release_all (o, keep) ->
      Printf.sprintf "release_all%s %d" (if keep then " ~keep_siread" else "") o
  | Transfer (o, o') -> Printf.sprintf "transfer_sireads %d -> %d" o o'

let arb_ops =
  let open QCheck.Gen in
  let owner = int_range 0 (n_owners - 1) in
  let mode =
    frequency [ (2, return Lockmgr.S); (1, return Lockmgr.X); (4, return Lockmgr.Siread) ]
  in
  (* A fresh copy now and then: lookups by an equal but distinct string. *)
  let resource =
    map2
      (fun r copy -> if copy then String.init (String.length r) (String.get r) else r)
      (frequencyl [ (8, "a"); (2, "b"); (1, "c"); (1, "d") ])
      (frequency [ (3, return false); (1, return true) ])
  in
  let op =
    frequency
      [
        (16, map3 (fun o m r -> Acquire (o, m, r)) owner mode resource);
        (2, map3 (fun o m r -> Release_one (o, m, r)) owner mode resource);
        (1, map2 (fun o keep -> Release_all (o, keep)) owner bool);
        (1, map2 (fun o o' -> Transfer (o, if o' = o then -1 else o')) owner owner);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
    (list_size (int_range 1 400) op)

type counts = { mutable s : int; mutable x : int; mutable siread : int }

let model_count c = function Lockmgr.S -> c.s | Lockmgr.X -> c.x | Lockmgr.Siread -> c.siread

let model_set c m n =
  match m with Lockmgr.S -> c.s <- n | Lockmgr.X -> c.x <- n | Lockmgr.Siread -> c.siread <- n

let model_holders model r =
  match Hashtbl.find_opt model r with
  | None -> []
  | Some holds ->
      Hashtbl.fold
        (fun o c acc ->
          List.fold_left
            (fun acc m -> if model_count c m > 0 then (o, m) :: acc else acc)
            acc Lockmgr.[ X; S; Siread ])
        holds []

(* Apply [op] to the models; the lock manager's answer for transfers is
   checked here too. *)
let model_step lm model index op =
  let holds_of r = match Hashtbl.find_opt model r with Some h -> h | None -> Hashtbl.create 4 in
  let forget_if_empty r h = if Hashtbl.length h = 0 then Hashtbl.remove model r in
  let index_of o =
    match Hashtbl.find_opt index o with
    | Some i -> i
    | None ->
        let i = Hashtbl.create 16 in
        Hashtbl.replace index o i;
        i
  in
  let unindex o r = Hashtbl.remove (index_of o) r in
  let drop_index_if_empty o =
    match Hashtbl.find_opt index o with
    | Some i when Hashtbl.length i = 0 -> Hashtbl.remove index o
    | _ -> ()
  in
  match op with
  | Acquire (o, m, r) ->
      let h = holds_of r in
      Hashtbl.replace model r h;
      let c =
        match Hashtbl.find_opt h o with
        | Some c -> c
        | None ->
            let c = { s = 0; x = 0; siread = 0 } in
            Hashtbl.replace h o c;
            Hashtbl.replace (index_of o) r ();
            c
      in
      model_set c m (model_count c m + 1);
      Lockmgr.acquire lm ~owner:o ~mode:m r
  | Release_one (o, m, r) ->
      (match Hashtbl.find_opt model r with
      | Some h -> (
          match Hashtbl.find_opt h o with
          | Some c when model_count c m > 0 ->
              model_set c m 0;
              if c.s = 0 && c.x = 0 && c.siread = 0 then begin
                Hashtbl.remove h o;
                unindex o r
              end;
              forget_if_empty r h
          | _ -> ())
      | None -> ());
      Lockmgr.release_one lm ~owner:o ~mode:m r
  | Release_all (o, keep_siread) ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt model r with
          | Some h -> (
              match Hashtbl.find_opt h o with
              | Some c ->
                  c.s <- 0;
                  c.x <- 0;
                  if not keep_siread then c.siread <- 0;
                  if c.siread = 0 then begin
                    Hashtbl.remove h o;
                    unindex o r
                  end;
                  forget_if_empty r h
              | None -> ())
          | None -> ())
        resources;
      drop_index_if_empty o;
      Lockmgr.release_all ~keep_siread lm o
  | Transfer (o, o') ->
      let order =
        match Hashtbl.find_opt index o with Some i -> old_index_release_order i | None -> []
      in
      let expected =
        List.filter_map
          (fun r ->
            let h = holds_of r in
            match Hashtbl.find_opt h o with
            | Some c when c.siread > 0 ->
                c.siread <- 0;
                if c.s = 0 && c.x = 0 then begin
                  Hashtbl.remove h o;
                  unindex o r
                end;
                let merged =
                  match Hashtbl.find_opt h o' with
                  | Some c' ->
                      let had = c'.siread > 0 in
                      if not had then c'.siread <- 1;
                      had
                  | None ->
                      Hashtbl.replace h o' { s = 0; x = 0; siread = 1 };
                      Hashtbl.replace (index_of o') r ();
                      false
                in
                Some (r, merged)
            | _ -> None)
          order
      in
      drop_index_if_empty o;
      let moved = Lockmgr.transfer_sireads lm ~owner:o ~to_owner:o' in
      if moved <> expected then QCheck.Test.fail_reportf "%s: moved entries differ" (show_op op)

(* An S or X request that would wait is left out: the sequence stays in
   one process and nothing ever queues. *)
let would_block lm = function
  | Acquire (o, m, r) ->
      List.exists (fun (o', m') -> o' <> o && Lockmgr.blocks m m') (Lockmgr.holders lm r)
  | Release_one _ | Release_all _ | Transfer _ -> false

(* Resources are visited in an order that rotates with [step], so the last
   entry looked up (which the lock manager caches) varies. Every owner's
   [holds] is checked every eighth step; otherwise only the holders' and
   the operation's. *)
let check_queries lm model ~step op =
  let fail fmt = QCheck.Test.fail_reportf ("after %s: " ^^ fmt) (show_op op) in
  let size = Lockmgr.lock_table_size lm in
  let expected_size =
    Hashtbl.fold (fun _ h acc -> acc + Hashtbl.length h) model 0
  in
  if size <> expected_size then fail "lock_table_size %d, model %d" size expected_size;
  List.iter
    (fun r ->
      let holders = Lockmgr.holders lm r in
      if holders <> model_holders model r then fail "holders of %s differ from the model" r;
      let x =
        match List.filter (fun (_, m) -> m = Lockmgr.X) holders with
        | [] -> Lockmgr.no_owner
        | [ (o, _) ] -> o
        | _ -> fail "two X holders on %s" r
      in
      if Lockmgr.x_owner lm r <> x then fail "x_owner %s" r;
      let sireads =
        List.filter_map (fun (o, m) -> if m = Lockmgr.Siread then Some o else None) holders
      in
      let seen = ref [] in
      Lockmgr.iter_siread_holders lm r (fun o -> seen := o :: !seen);
      if List.rev !seen <> sireads then fail "iter_siread_holders %s" r;
      let owners =
        if step mod 8 = 0 then List.init (n_owners + 1) (fun o -> o - 1)
        else
          match op with
          | Acquire (o, _, _) | Release_one (o, _, _) | Release_all (o, _) | Transfer (o, _) ->
              o :: List.map fst holders
      in
      List.iter
        (fun o ->
          let modes = Lockmgr.holds_of lm ~owner:o r in
          List.iter
            (fun m ->
              if Lockmgr.holds lm ~owner:o ~mode:m r <> List.mem m modes then
                fail "holds %d %s %s" o (Lockmgr.mode_to_string m) r)
            Lockmgr.[ S; X; Siread ])
        owners)
    (let all = "absent" :: resources in
     let k = step mod List.length all in
     List.filteri (fun i _ -> i >= k) all @ List.filteri (fun i _ -> i < k) all);
  if Lockmgr.lock_table_size lm <> size then fail "queries changed lock_table_size"

let prop_queries_match_holders =
  QCheck.Test.make ~name:"x_owner/holds/iter_siread_holders agree with holders" ~count:100
    arb_ops (fun ops ->
      let lm = Lockmgr.create (Sim.create ()) in
      let model = Hashtbl.create 8 and index = Hashtbl.create 8 in
      List.iteri
        (fun step op ->
          if not (would_block lm op) then begin
            model_step lm model index op;
            check_queries lm model ~step op
          end)
        ops;
      true)

let suite =
  [
    ("conflict matrix", `Quick, test_conflict_matrix);
    ("shared locks coexist", `Quick, test_shared_locks_coexist);
    ("X blocks until release", `Quick, test_x_blocks_until_release);
    ("SIREAD never blocks", `Quick, test_siread_never_blocks);
    ("X granted over SIREAD", `Quick, test_x_granted_over_siread);
    ("FIFO no starvation", `Quick, test_fifo_no_starvation);
    ("reentrant acquisition", `Quick, test_reentrant);
    ("upgrade waits for other S", `Quick, test_upgrade_waits_for_other_s);
    ("immediate deadlock detection", `Quick, test_immediate_deadlock);
    ("periodic deadlock detection", `Quick, test_periodic_deadlock);
    ("cancel wait", `Quick, test_cancel_wait);
    ("release keeps SIREAD", `Quick, test_release_keeps_siread);
    ("release_one wakes waiter", `Quick, test_release_wakes_waiter);
    ("three-way deadlock", `Quick, test_three_way_deadlock_periodic);
    ("reentrant bypasses queue", `Quick, test_reentrant_bypasses_queue);
    ("conversion at queue front", `Quick, test_conversion_goes_to_queue_front);
    ("retained SIREAD visible to X", `Quick, test_siread_retained_vs_new_x);
    ("dropped entry not reused", `Quick, test_dropped_entry_not_reused);
    ("release wakes in old index order", `Quick, check_release_wake_order ~keep_siread:false);
    ( "commit release wakes in old index order",
      `Quick,
      check_release_wake_order ~keep_siread:true );
    QCheck_alcotest.to_alcotest prop_queries_match_holders;
  ]

let () = Alcotest.run "lockmgr" [ ("lockmgr", suite) ]
