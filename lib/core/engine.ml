(** The execution-engine abstraction: a uniform create / warm / run /
    run_batch / stats surface over the executor, so the fuzzer (and any
    future sharded or multi-process backend) depends on a signature rather
    than a concrete executor wiring.

    Two implementations ship today, both thin wrappers over {!Executor}
    differing only in backend:
    - {b naive} rebuilds the simulator whenever pristine state is needed
      (the paper's baseline cost model);
    - {b pooled} builds one simulator per engine and rewinds it to the
      post-boot checkpoint per test case — the warm-state reuse behind the
      paper's 10–100× executor speedup.  The checkpoint comes from the
      executor's process-wide boot table, so the warm boot runs once per
      simulator configuration per process, not once per engine.
      Trace-for-trace identical to naive by construction. *)

open Amulet_isa
open Amulet_uarch
open Amulet_defenses

type kind = Naive | Pooled

let kind_name = function Naive -> "naive" | Pooled -> "pooled"

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

module Make (B : sig
  val backend : Executor.backend
  val name : string
end) : S = struct
  open Amulet_obs

  type t = {
    ex : Executor.t;
    mutable batches : int;
    mutable inputs_run : int;
    m_batches : Obs.counter;
    m_inputs : Obs.counter;
    m_batch_latency : Obs.histogram;
  }

  let name = B.name

  let create ?boot_insts ?format ?sim_config ?chaos ~mode defense stats =
    let metrics = Stats.registry stats in
    {
      ex =
        Executor.create ?boot_insts ?format ?sim_config ?chaos
          ~backend:B.backend ~mode defense stats;
      batches = 0;
      inputs_run = 0;
      m_batches = Obs.counter metrics "engine.batches";
      m_inputs = Obs.counter metrics "engine.inputs_run";
      m_batch_latency = Obs.histogram metrics "engine.batch.latency";
    }

  let warm t = Executor.warm t.ex

  let run t ?context ?log flat input = Executor.run t.ex ?context ?log flat input

  let run_batch t ?(check = fun () -> ()) flat inputs =
    let started = Obs.Clock.now_s () in
    Executor.start_program t.ex;
    t.batches <- t.batches + 1;
    Obs.incr t.m_batches;
    let n = Array.length inputs in
    let outcomes = Array.make n None in
    let fault = ref None in
    let i = ref 0 in
    while !fault = None && !i < n do
      check ();
      let o = Executor.run t.ex flat inputs.(!i) in
      t.inputs_run <- t.inputs_run + 1;
      Obs.incr t.m_inputs;
      outcomes.(!i) <- Some o;
      (match o.Executor.run_fault with
      | Some f -> fault := Some (f, inputs.(!i))
      | None -> ());
      incr i
    done;
    Obs.observe t.m_batch_latency (Obs.Clock.elapsed_s ~since:started);
    { outcomes; batch_fault = !fault }

  let stats t =
    {
      engine = B.name;
      sims_created = Executor.sims_created t.ex;
      boots = Executor.boots t.ex;
      snapshot_restores = Executor.restores t.ex;
      batches = t.batches;
      inputs_run = t.inputs_run;
      programs_decoded = Executor.decodes t.ex;
    }
end

module Naive_engine = Make (struct
  let backend = Executor.Rebuild
  let name = "naive"
end)

module Pooled_engine = Make (struct
  let backend = Executor.Pool
  let name = "pooled"
end)

(* ------------------------------------------------------------------ *)
(* Packed engines (runtime-selected implementation)                    *)
(* ------------------------------------------------------------------ *)

type t = Packed : (module S with type t = 'a) * 'a -> t

let create ?boot_insts ?format ?sim_config ?chaos ?(kind = Pooled) ~mode
    defense stats =
  match kind with
  | Naive ->
      Packed
        ( (module Naive_engine),
          Naive_engine.create ?boot_insts ?format ?sim_config ?chaos ~mode
            defense stats )
  | Pooled ->
      Packed
        ( (module Pooled_engine),
          Pooled_engine.create ?boot_insts ?format ?sim_config ?chaos ~mode
            defense stats )

let name (Packed ((module M), _)) = M.name
let warm (Packed ((module M), e)) = M.warm e

let run (Packed ((module M), e)) ?context ?log flat input =
  M.run e ?context ?log flat input

let run_batch (Packed ((module M), e)) ?check flat inputs =
  M.run_batch e ?check flat inputs

let stats (Packed ((module M), e)) = M.stats e
