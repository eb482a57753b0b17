(** Lock manager with the paper's non-blocking SIREAD mode (§3.2).

    Resources are strings (the engine encodes row keys, gap keys and page
    ids); owners are integer transaction ids. S and X behave like a classic
    strict-2PL lock manager with FIFO queues; SIREAD grants instantly, delays
    nobody, and exists only so a later X acquisition can observe that a
    concurrent SI transaction read the item. Conflict *flagging* is done by
    the engine layer, which asks two questions of a resource's entry after
    a grant: a reader asks for its X owner ({!x_owner}, O(1), since X is
    exclusive) and a writer walks its SIREAD owners
    ({!iter_siread_holders}, building no list). Neither question allocates,
    and asking several about the resource just acquired costs one lookup.

    Re-entrant: an owner may hold several modes on one resource; its own
    holds never block it (so an S→X upgrade waits only for other owners).

    Each owner's holds are kept on a list, so {!release_all},
    {!transfer_sireads} and {!owned_resources} walk the owner's own holds
    and hash no resource name. {!release_all} with [~keep_siread:true] costs
    nothing for an owner holding no S or X. Releasing an S or X hold on a
    resource with waiters wakes them, so those releases keep a fixed order:
    the one the owner's resources had in a stdlib [Hashtbl] of 16 initial
    buckets, recomputed from each resource's hash, the owner's peak hold
    count and the order of its grants. Every other release grants nobody and
    may run in any order. {!transfer_sireads} returns its resources in the
    same order. *)

type mode = S | X | Siread

val mode_to_string : mode -> string

type owner = int

(** Stands for "no owner" in {!x_owner}'s answer; never a real owner. *)
val no_owner : owner

(** Raised inside a blocked process chosen as deadlock victim, and by
    {!acquire} itself under [Immediate] detection when waiting would close a
    waits-for cycle. *)
exception Deadlock_victim

(** Whether a requested mode must wait for a held mode. *)
val blocks : mode -> mode -> bool

type detection =
  | Immediate  (** cycle check on every block (InnoDB-style) *)
  | Periodic of float
      (** detector process scanning every [dt] simulated seconds
          (Berkeley DB db_perf-style, twice per second in §6.1) *)

type t

val create : ?detection:detection -> Sim.t -> t

(** Attach an observability sink (lock acquire/block/grant/release and
    deadlock events, lock-wait histogram). Default {!Obs.disabled}. *)
val set_obs : t -> Obs.t -> unit

(** Footprint hook for the DPOR explorer: [f owner is_write resource] is
    called on every {!acquire} (X counts as a write; S and SIREAD are
    reads), before the request can block. [None] (default) disables it. *)
val set_on_touch : t -> (owner -> bool -> string -> unit) option -> unit

(** Every resource [owner] currently holds at least one mode on, sorted. *)
val owned_resources : t -> owner -> string list

(** [acquire t ~owner ~mode resource] grants or blocks (process context).
    SIREAD never blocks. May raise {!Deadlock_victim}. *)
val acquire : t -> owner:owner -> mode:mode -> string -> unit

(** [acquire_siread t ~owner resource] grants a SIREAD unless [owner]
    already holds one on [resource], and returns whether it granted. A
    grant counts in {!requests} and calls the {!set_on_touch} hook as
    {!acquire} does; finding the SIREAD held does neither. Equivalent to
    [not (holds t ~owner ~mode:Siread resource)] followed by
    [acquire t ~owner ~mode:Siread resource], with one lookup. *)
val acquire_siread : t -> owner:owner -> string -> bool

(** All (owner, mode) holds on a resource, including suspended committed
    SIREAD owners. *)
val holders : t -> string -> (owner * mode) list

(** Modes [owner] currently holds on [resource]. *)
val holds_of : t -> owner:owner -> string -> mode list

(** Whether [owner] holds [mode] on [resource]: [List.mem mode (holds_of ...)]
    without the list. *)
val holds : t -> owner:owner -> mode:mode -> string -> bool

(** The owner holding X on [resource], or {!no_owner}. At most one owner
    holds X, so this is the only [(owner, X)] pair of {!holders}. O(1). *)
val x_owner : t -> string -> owner

(** [iter_siread_holders t resource f] calls [f] on every owner holding a
    SIREAD on [resource] (suspended committed owners included), in the
    order of {!holders}, without building a list. [f] must not add or
    remove holds on [resource]; holds on other resources are fine. *)
val iter_siread_holders : t -> string -> (owner -> unit) -> unit

(** Drop one mode (all its recursive acquisitions) of [owner] on [resource];
    wakes newly compatible waiters. *)
val release_one : t -> owner:owner -> mode:mode -> string -> unit

(** Release everything [owner] holds. With [~keep_siread:true], SIREAD
    entries survive — a committing SSI transaction keeps them while
    suspended (§3.3) — and an owner holding no S or X costs nothing. *)
val release_all : ?keep_siread:bool -> t -> owner -> unit

(** If [owner] is blocked in {!acquire}, raise [exn] inside it and return
    [true]. Used to abort a blocked transaction from markConflict. *)
val cancel_wait : t -> owner -> exn -> bool

(** [transfer_sireads t ~owner ~to_owner] moves every SIREAD annotation of
    [owner] onto [to_owner], merging where the target already holds one.
    Returns the transferred resources, each paired with [true] when it was
    merged (the table shrank by one entry), in the release order described
    above. Used by committed-transaction
    summarization to pool old owners' SIREADs under a sentinel owner. *)
val transfer_sireads : t -> owner:owner -> to_owner:owner -> (string * bool) list

(** {1 Waits-for introspection} *)

(** Current waits-for edges: a blocked owner points at every conflicting
    holder and every conflicting earlier waiter. Only entries that have had
    a queue since the last call are visited. The order of the edges is
    unspecified. *)
val waits_for_edges : t -> (owner * owner) list

(** The waits-for cycle through [start] in [edges]: a path
    [[start; a; b; ...]] where each owner waits for the next and the last
    waits for [start]; [[start]] if there is none. Deterministic
    (successors explored in sorted order). *)
val cycle_path : (owner * owner) list -> owner -> owner list

val is_waiting : t -> owner -> bool

(** {1 Statistics} *)

(** Total (owner, resource, mode) holds currently in the table. *)
val lock_table_size : t -> int

val requests : t -> int

(** Requests that blocked. *)
val waits : t -> int

(** Deadlock victims chosen. *)
val deadlocks : t -> int

val reset_stats : t -> unit
