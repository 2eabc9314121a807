(** Simulator facade: the unit the AMuLeT executor drives.

    Owns the persistent microarchitectural state (caches, TLB, predictors)
    plus the committed architectural state, and runs flattened programs
    through the out-of-order pipeline.  Creation is deliberately heavyweight
    (structure allocation plus a synthetic warm-boot workload), standing in
    for gem5's multi-second process startup; executors amortize it by
    reusing one simulator across inputs (paper §3.2, C3) or — the pooled
    engine — by checkpointing the post-boot state once per configuration
    with {!snapshot} and rewinding with {!restore} instead of re-running
    the boot workload. *)

open Amulet_isa
open Amulet_emu

type t

type run_stats = {
  cycles : int;
  committed_insts : int;
  squashes : int;
  squashed_insts : int;  (** entries thrown away across all squashes *)
  spec_issued : int;  (** loads/stores issued while speculative *)
  mispredicts : int;
  fault : string option;
}
(** Per-run totals, derived from the pipeline's own deterministic counters
    (not the {!Amulet_obs} registry, which may be detached): the feedback
    signal coverage-guided generation keys on. *)

val default_boot_insts : int

val create :
  ?metrics:Amulet_obs.Obs.t -> ?boot_insts:int -> ?pages:int -> Config.t -> t
(** Create a simulator.  [boot_insts > 0] runs the synthetic warm-boot
    workload, making creation cost realistic (AMuLeT-Naive pays it per
    input; AMuLeT-Opt once per test program; the pooled engine once per
    executor lifetime).  [metrics] (default noop) receives the [uarch.*]
    hardware counters; the boot workload is excluded from them so that
    engines booting different numbers of simulators still accumulate
    identical counts.  Counting is trace-invisible. *)

val config : t -> Config.t
val log : t -> Event.log

val metrics : t -> Amulet_obs.Obs.t
(** The registry the simulator counts into ([Obs.noop] when none given). *)

val arch_state : t -> State.t

val load_state : t -> State.t -> unit
(** Overwrite registers and sandbox memory in place — the Opt-executor path
    that avoids restarting the simulator. *)

val run : t -> Program.flat -> run_stats
(** Run a test program to completion over the current architectural state. *)

val prime_base : int
(** Base address of the priming region: disjoint from the sandbox but
    mapping onto the same L1 sets. *)

val prime_with_fills : t -> run_stats
(** Prime the L1D with the fill, then reset the TLB and L1I.  The fill's
    effect is installed directly, costing no simulated instructions, and
    the returned stats are zero.  The legacy hot loop, the next-line
    prefetcher and sandboxes that reach {!prime_base} take the simulated
    reference instead ({!prime_with_fills_simulated}).  Either way the
    resulting {!snapshot} is the same; only the access order and the debug
    event log differ (the direct install records neither). *)

val prime_with_fills_simulated : t -> run_stats
(** The reference prime: run the fill program ([l1d_sets * l1d_ways]
    dependent loads from outside the sandbox) through the pipeline (costs
    simulated instructions, and counts in the [uarch.*] counters and
    {!total_cycles}), then reset the TLB and L1I. *)

val prime_with_flush : t -> unit
(** Prime by direct invalidation (clean caches, no simulated work). *)

(** {2 Microarchitectural state extraction} *)

val l1d_tags : t -> int list
val l1i_tags : t -> int list
val tlb_pages : t -> int list
val bp_state : t -> int array
val access_order : t -> (int * int) list
val clear_access_order : t -> unit
val branch_prediction_order : t -> (int * bool * int) list
val execution_order : t -> int list

(** {2 Predictor/cache context snapshots (violation validation, §3.2)} *)

type context

val snapshot_context : t -> context
val restore_context : t -> context -> unit

(** {2 Full checkpoints (the pooled engine's boot-state reuse)} *)

type snapshot
(** A full post-boot checkpoint: microarchitectural context plus the
    committed architectural state.  Restoring is equivalent to a fresh
    [create] with the same configuration, minus the boot workload. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

(** {2 Reset hooks} *)

val reset_predictors : t -> unit
val flush_caches : t -> unit
val reset_tlb : t -> unit
val reset_l1i : t -> unit

(** {2 Cumulative counters (throughput accounting; monotonic across
    restores)} *)

val total_cycles : t -> int
val total_insts : t -> int
val runs : t -> int

val decodes : t -> int
(** Programs decoded into the shared {!Amulet_isa.Decoded} cache over this
    simulator's lifetime (the boot program and a simulated prime's fill
    program included): with the cache
    working, this stays proportional to the number of distinct programs,
    not the number of inputs. *)
