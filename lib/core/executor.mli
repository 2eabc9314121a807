(** The executor: runs test cases on the simulator under test and extracts
    microarchitectural traces.

    {b Mode} fixes the testing semantics (paper §3.2, C3): [Naive] starts
    every input from pristine post-boot state; [Opt] reuses one simulator
    per program, overwriting registers/memory in place and priming the L1D
    per the defense's harness style.

    {b Backend} fixes the trace-invisible implementation strategy:
    [Rebuild] reconstructs the simulator (full warm-boot cost) whenever
    pristine state is needed — the paper's Naive cost model; [Pool] builds
    one simulator and rewinds it to its post-boot checkpoint with
    {!Amulet_uarch.Simulator.restore}.  [Pool] checkpoints come from a
    process-wide, lock-guarded boot table keyed by (simulator configuration,
    sandbox pages, boot length): the first pooled executor of a key boots,
    every later one restores the stored checkpoint into an unbooted
    simulator. *)

open Amulet_isa
open Amulet_uarch
open Amulet_defenses

type mode = Naive | Opt

val mode_name : mode -> string

type backend = Rebuild | Pool

val backend_name : backend -> string

type t

type outcome = {
  trace : Utrace.t;
  context : Simulator.context;
      (** full μarch starting context (predictors + caches), snapshotted
          just before the run — the handle violation validation uses *)
  run_fault : Fault.t option;
  cycles : int;
  sim_stats : Simulator.run_stats;
      (** per-run pipeline totals (squashes, speculative issues,
          mispredicts): the deterministic μarch feedback signal guided
          generation keys on; derived from the pipeline's own counters, so
          present even when telemetry is detached *)
  events : Event.t list;
      (** debug log of the run; [[]] unless [?log] was set *)
}

val create :
  ?boot_insts:int ->
  ?format:Utrace.format ->
  ?sim_config:Config.t ->
  ?chaos:Fault.injector ->
  ?backend:backend ->
  mode:mode ->
  Defense.t ->
  Stats.t ->
  t
(** [backend] defaults to [Pool].  [chaos], when set, arms a probabilistic
    fault injector: each test case may raise {!Fault.Injected_crash} or
    report an injected fault instead of its real outcome (robustness
    self-tests only). *)

val mode : t -> mode
val backend : t -> backend

val start_program : t -> unit
(** Begin a new test program; where [Opt] mode pays for pristine state (a
    rebuild or a checkpoint rewind, per the backend). *)

val warm : t -> unit
(** Pre-build the pooled simulator (booting only when the boot table has no
    checkpoint for its key yet) so the first test case doesn't pay for it
    ([Rebuild]: no-op). *)

val run :
  t -> ?context:Simulator.context -> ?log:bool -> Program.flat -> Input.t ->
  outcome
(** Execute one test case.  Without [?context], a fresh run under the
    executor's mode; with [?context], a validation rerun from an exactly
    reproduced microarchitectural starting context.  [?log] (default
    [false]) enables the debug event log and fills [outcome.events]. *)

val sims_created : t -> int
(** Simulators built over this executor's lifetime, booted or restored
    from the boot table. *)

val boots : t -> int
(** Warm-boot workloads run over this executor's lifetime: one per
    simulator under [Rebuild]; under [Pool], 1 if this executor was the
    first of its key in the process, else 0. *)

val restores : t -> int
(** Checkpoint rewinds performed instead of rebuilds ([Pool] backend). *)

val decodes : t -> int
(** Programs decoded into the shared {!Amulet_isa.Decoded} cache across
    every simulator this executor has owned (monotonic over [Rebuild]
    replacements).  With decode amortization working this tracks distinct
    programs, not inputs. *)
