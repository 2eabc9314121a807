(** The execution-engine abstraction: a uniform create / warm / run /
    run_batch / stats surface over the executor.  The fuzzer depends on
    this signature, so alternative backends (sharded, multi-process) can
    slot in without an interface break. *)

open Amulet_isa
open Amulet_uarch
open Amulet_defenses

type kind = Naive | Pooled

val kind_name : kind -> string

type stats = {
  engine : string;
  sims_created : int;
      (** simulators built: one per rebuild under naive; one per engine
          under pooled, booted or restored from the process-wide boot table
          (see {!Executor}) *)
  boots : int;
      (** warm-boot workloads actually run: [sims_created] under naive; at
          most 1 under pooled, and 0 when an earlier engine of the same
          configuration in the process already booted it *)
  snapshot_restores : int;  (** checkpoint rewinds performed instead *)
  batches : int;
  inputs_run : int;  (** inputs executed through {!run_batch} *)
  programs_decoded : int;
      (** pre-decode cache fills; with amortization working this tracks
          distinct programs, not [inputs_run] *)
}

(** Result of one batched pass: per-input outcomes in input order.  A
    simulator fault stops the batch — later slots stay [None] — and is
    reported with the offending input. *)
type batch = {
  outcomes : Executor.outcome option array;
  batch_fault : (Fault.t * Input.t) option;
}

(** What every engine implementation provides. *)
module type S = sig
  type t

  val name : string

  val create :
    ?boot_insts:int ->
    ?format:Utrace.format ->
    ?sim_config:Config.t ->
    ?chaos:Fault.injector ->
    mode:Executor.mode ->
    Defense.t ->
    Stats.t ->
    t

  val warm : t -> unit
  (** Pay any one-time startup cost now rather than on the first test case. *)

  val run :
    t -> ?context:Simulator.context -> ?log:bool -> Program.flat -> Input.t ->
    Executor.outcome
  (** Single test case; see {!Executor.run}. *)

  val run_batch : t -> ?check:(unit -> unit) -> Program.flat -> Input.t array -> batch
  (** Execute all inputs of one test program against a warm simulator in a
      single pass.  [check] runs before each input (deadline hook); whatever
      it raises propagates. *)

  val stats : t -> stats
end

module Naive_engine : S
(** Rebuilds the simulator whenever pristine state is needed. *)

module Pooled_engine : S
(** Boots once, checkpoints post-boot state, rewinds per test case. *)

(** {2 Packed engines (runtime-selected implementation)} *)

type t

val create :
  ?boot_insts:int ->
  ?format:Utrace.format ->
  ?sim_config:Config.t ->
  ?chaos:Fault.injector ->
  ?kind:kind ->
  mode:Executor.mode ->
  Defense.t ->
  Stats.t ->
  t
(** [kind] defaults to [Pooled]. *)

val name : t -> string
val warm : t -> unit

val run :
  t -> ?context:Simulator.context -> ?log:bool -> Program.flat -> Input.t ->
  Executor.outcome

val run_batch : t -> ?check:(unit -> unit) -> Program.flat -> Input.t array -> batch
val stats : t -> stats
