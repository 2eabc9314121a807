(** Simulator facade: the unit the AMuLeT executor drives.

    Owns the persistent microarchitectural state (caches, TLB, predictors)
    plus the committed architectural state, and runs flattened programs
    through the out-of-order pipeline.  Creation is deliberately heavyweight
    (structure allocation plus a synthetic warm-boot workload), standing in
    for gem5's multi-second process startup; the AMuLeT-Opt executor
    amortizes it by reusing one simulator across all inputs of a program,
    overwriting registers and memory in place (paper §3.2, C3). *)

open Amulet_isa
open Amulet_emu

type t = {
  cfg : Config.t;
  log : Event.log;
  metrics : Amulet_obs.Obs.t;
  perf : Perf.t;  (** counter handles resolved once, shared by all runs *)
  ms : Memsys.t;
  bp : Branch_pred.t;
  mdp : Mdp.t;
  mutable arch : State.t;
  mutable total_cycles : int;
  mutable total_insts : int;
  mutable runs : int;
  mutable pipe : Pipeline.t option;
      (** the reusable pipeline: built on first run, rewound with
          {!Pipeline.reset} for every run after *)
  mutable dec_cache : Decoded.t option;
      (** last decoded test program, keyed by physical equality of the flat;
          one slot suffices because executors run all inputs of a program
          back to back (the prime program has its own slot below) *)
  mutable prime_flat : Program.flat option;
  mutable prime_dec : Decoded.t option;
  mutable decodes : int;  (** programs decoded over this simulator's life *)
  m_decodes : Amulet_obs.Obs.counter;
  mutable orders_live : bool;
      (** order traces of the last run live in [pipe] (extracted lazily);
          false after a restore or a legacy-pipeline run *)
  mutable last_bpred_order : (int * bool * int) list;
      (** (pc, predicted taken, predicted target) of the last run, when not
          [orders_live] *)
  mutable last_exec_order : int list;
      (** PCs in execution order (incl. wrong-path) of the last run, when
          not [orders_live] *)
}

type run_stats = {
  cycles : int;
  committed_insts : int;
  squashes : int;
  squashed_insts : int;
  spec_issued : int;
  mispredicts : int;
  fault : string option;
}

(* ------------------------------------------------------------------ *)
(* Warm boot (the synthetic startup workload)                          *)
(* ------------------------------------------------------------------ *)

(* A boot program exercising the whole core: dependent ALU chains, memory
   traffic and branches — the simulator analogue of gem5 initializing Ruby,
   loading the binary and warming its event queues. *)
let boot_program ~insts =
  let body = ref [] in
  let n = max 16 (insts / 8) in
  for i = n downto 1 do
    let disp = i * 8 mod 2048 in
    body :=
      Inst.Binop (Inst.Add, Width.W64, Operand.Reg Reg.RAX, Operand.Imm (Int64.of_int i))
      :: Inst.Mov (Width.W64, Operand.mem ~disp Reg.sandbox_base, Operand.Reg Reg.RAX)
      :: Inst.Mov (Width.W64, Operand.Reg Reg.RBX, Operand.mem ~disp Reg.sandbox_base)
      :: Inst.Binop (Inst.Xor, Width.W64, Operand.Reg Reg.RCX, Operand.Reg Reg.RBX)
      :: Inst.Cmp (Width.W64, Operand.Reg Reg.RCX, Operand.Imm 0L)
      :: Inst.Setcc (Cond.NZ, Operand.Reg Reg.RDX)
      :: Inst.Shift (Inst.Shl, Width.W64, Operand.Reg Reg.RDX, 1)
      :: Inst.Unop (Inst.Inc, Width.W64, Operand.Reg Reg.RSI)
      :: !body
  done;
  Program.flatten (Program.make [ { Program.label = "boot"; body = !body } ])

let default_boot_insts = 20_000

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let finish_run t ~cycles ~committed_insts =
  t.total_cycles <- t.total_cycles + cycles;
  t.total_insts <- t.total_insts + committed_insts;
  t.runs <- t.runs + 1;
  (* drain per-run transient state; persistent state (caches, predictors)
     survives for the next run *)
  Memsys.reset_transient t.ms |> ignore

(* The original per-run path: build a fresh legacy pipeline (and throw it
   away).  Kept as the benchmark baseline and differential-testing oracle. *)
let run_flat_legacy t flat : run_stats =
  let p =
    Pipeline_legacy.create ~perf:t.perf t.cfg t.ms t.bp t.mdp t.log t.arch flat
  in
  let r = Pipeline_legacy.run p in
  t.orders_live <- false;
  t.last_bpred_order <- Pipeline_legacy.branch_prediction_order p;
  t.last_exec_order <- Pipeline_legacy.execution_order p;
  finish_run t ~cycles:r.Pipeline_legacy.cycles
    ~committed_insts:r.Pipeline_legacy.committed_insts;
  {
    cycles = r.Pipeline_legacy.cycles;
    committed_insts = r.Pipeline_legacy.committed_insts;
    squashes = r.Pipeline_legacy.squashes;
    squashed_insts = r.Pipeline_legacy.squashed_insts;
    spec_issued = r.Pipeline_legacy.spec_issued;
    mispredicts = r.Pipeline_legacy.mispredicts;
    fault = r.Pipeline_legacy.fault;
  }

(* The hot path: rewind the persistent pipeline over a pre-decoded program. *)
let run_decoded t (dec : Decoded.t) : run_stats =
  let p =
    match t.pipe with
    | Some p -> p
    | None ->
        let p = Pipeline.create ~perf:t.perf t.cfg t.ms t.bp t.mdp t.log t.arch dec in
        t.pipe <- Some p;
        p
  in
  Pipeline.reset p ~arch:t.arch dec;
  let r = Pipeline.run p in
  t.orders_live <- true;
  finish_run t ~cycles:r.Pipeline.cycles ~committed_insts:r.Pipeline.committed_insts;
  {
    cycles = r.Pipeline.cycles;
    committed_insts = r.Pipeline.committed_insts;
    squashes = r.Pipeline.squashes;
    squashed_insts = r.Pipeline.squashed_insts;
    spec_issued = r.Pipeline.spec_issued;
    mispredicts = r.Pipeline.mispredicts;
    fault = r.Pipeline.fault;
  }

let note_decode t =
  t.decodes <- t.decodes + 1;
  Amulet_obs.Obs.incr t.m_decodes

(* Decode [flat] once per program: repeat runs of the same flat (every input
   of a test case) hit the cache. *)
let decode_for t flat =
  match t.dec_cache with
  | Some d when Decoded.flat d == flat -> d
  | _ ->
      let d = Decoded.decode flat in
      t.dec_cache <- Some d;
      note_decode t;
      d

let run_flat t flat : run_stats =
  if t.cfg.Config.legacy_hot_loop then run_flat_legacy t flat
  else run_decoded t (decode_for t flat)

(** Create a simulator.  [boot_insts > 0] runs the synthetic warm-boot
    workload, making creation cost realistic (AMuLeT-Naive pays it per
    input; AMuLeT-Opt once per test program). *)
let create ?(metrics = Amulet_obs.Obs.noop) ?(boot_insts = default_boot_insts)
    ?(pages = 1) (cfg : Config.t) =
  let log = Event.create () in
  let t =
    {
      cfg;
      log;
      metrics;
      perf = Perf.create metrics;
      ms = Memsys.create ~metrics cfg log;
      bp =
        Branch_pred.create ~metrics ~history_bits:cfg.bp_history_bits
          ~table_bits:cfg.bp_table_bits ~btb_bits:cfg.btb_bits ();
      mdp = Mdp.create ~bits:cfg.mdp_bits;
      arch = State.create ~pages ();
      total_cycles = 0;
      total_insts = 0;
      runs = 0;
      pipe = None;
      dec_cache = None;
      prime_flat = None;
      prime_dec = None;
      decodes = 0;
      m_decodes = Amulet_obs.Obs.counter metrics "engine.sim.decodes";
      orders_live = false;
      last_bpred_order = [];
      last_exec_order = [];
    }
  in
  if boot_insts > 0 then begin
    (* the boot workload is excluded from hardware counters: engines boot
       a different number of simulators (naive: many; pooled: one), and
       counting boot would make otherwise-identical campaigns diverge *)
    let was_enabled = Amulet_obs.Obs.is_enabled metrics in
    Amulet_obs.Obs.set_enabled metrics false;
    Fun.protect
      ~finally:(fun () -> Amulet_obs.Obs.set_enabled metrics was_enabled)
      (fun () ->
        let boot = boot_program ~insts:boot_insts in
        ignore (run_flat t boot);
        (* boot effects must not leak into the first test case *)
        Memsys.flush_caches t.ms;
        Branch_pred.reset t.bp;
        Mdp.reset t.mdp;
        t.arch <- State.create ~pages ())
  end;
  t

let config t = t.cfg
let log t = t.log
let metrics t = t.metrics
let arch_state t = t.arch

(* ------------------------------------------------------------------ *)
(* Test-case state management (the AMuLeT-Opt in-place overwrite)      *)
(* ------------------------------------------------------------------ *)

(** Overwrite registers and sandbox memory in place from [state] — the
    Opt-executor path that avoids restarting the simulator. *)
let load_state t (state : State.t) =
  Array.blit state.State.regs 0 t.arch.State.regs 0 (Array.length state.State.regs);
  t.arch.State.flags <- state.State.flags;
  Memory.blit ~src:state.State.mem ~dst:t.arch.State.mem

(** Run a test program to completion over the current architectural state. *)
let run t (flat : Program.flat) : run_stats = run_flat t flat

(* ------------------------------------------------------------------ *)
(* Cache priming                                                       *)
(* ------------------------------------------------------------------ *)

(** Base address of the priming region: disjoint from the sandbox but
    mapping onto the same L1 sets. *)
let prime_base = 0x10_0000

(* The fill load for [way] of [set]: each way gets its own 4 KiB region, so
   a set receives [l1d_ways] distinct tags. *)
let prime_addr (cfg : Config.t) ~way ~set =
  prime_base + (way * 0x1000) + (set * cfg.line_bytes)

(** A program of plain loads that fills every L1D set with
    [ways]-per-set addresses from outside the sandbox (paper §3.2, C2:
    starting from fully-occupied sets makes both installs and evictions
    visible).  Each load is [mov r15, [r15 + addr]]: with R15 zeroed and
    out-of-sandbox reads returning zero, the chain loads exactly [addr],
    one load after another.  It is the reference for the fill's effect;
    {!prime_with_fills} normally installs that effect directly, without
    simulating the program's [sets * ways] instructions. *)
let prime_program (cfg : Config.t) =
  let body = ref [] in
  for way = cfg.l1d_ways - 1 downto 0 do
    for set = cfg.l1d_sets - 1 downto 0 do
      body :=
        Inst.Mov
          ( Width.W64,
            Operand.Reg Reg.R15,
            Operand.mem ~disp:(prime_addr cfg ~way ~set) Reg.R15 )
        :: !body
    done
  done;
  Program.flatten (Program.make [ { Program.label = "prime"; body = !body } ])

(* The prime program is a pure function of the config: build and decode it
   once per simulator.  It keeps its own cache slot so that alternating
   prime/test runs don't thrash the single-entry test-program slot. *)
let prime_decoded t =
  match t.prime_dec with
  | Some d -> d
  | None ->
      let flat = prime_program t.cfg in
      let d = Decoded.decode flat in
      t.prime_flat <- Some flat;
      t.prime_dec <- Some d;
      note_decode t;
      d

(** The reference prime: run the fill program through the pipeline (it
    costs simulated instructions).  R15 is zeroed for absolute addressing
    and the TLB/L1I are reset afterwards via simulator hooks, as the real
    harness does. *)
let prime_with_fills_simulated t =
  let saved_r15 = State.read_reg t.arch Reg.R15 in
  State.write_reg t.arch Reg.R15 0L;
  let stats =
    if t.cfg.Config.legacy_hot_loop then
      (* faithful baseline: the original rebuilt the fill program per call *)
      run_flat_legacy t (prime_program t.cfg)
    else run_decoded t (prime_decoded t)
  in
  State.write_reg t.arch Reg.R15 saved_r15;
  Memsys.reset_tlb t.ms;
  Memsys.reset_l1i t.ms;
  stats

(* Does some fill load read sandbox memory?  Then it may load a nonzero
   value, and the chain's later addresses depend on the input. *)
let fill_reads_sandbox t =
  let cfg = t.cfg in
  let mem = t.arch.State.mem in
  let fill_end =
    prime_addr cfg ~way:(cfg.l1d_ways - 1) ~set:(cfg.l1d_sets - 1) + 8
  in
  Memory.base mem < fill_end && prime_base < Memory.limit mem

let no_work =
  {
    cycles = 0;
    committed_insts = 0;
    squashes = 0;
    squashed_insts = 0;
    spec_issued = 0;
    mispredicts = 0;
    fault = None;
  }

(** Prime the L1D with the fill.  The fill has no stores and no branches,
    so its loads are non-speculative and train no predictor; being a
    dependent chain, they complete strictly one after another.  Their whole
    effect is therefore {!Memsys.demand_fill} per line in program order,
    which is installed directly here at no simulated cost (zero stats).
    The simulated reference runs instead where that argument fails: the
    legacy hot loop (kept faithful as the benchmark baseline), the
    next-line prefetcher (prefetches interleave with the fills by timing)
    and sandboxes that reach the fill region. *)
let prime_with_fills t =
  let cfg = t.cfg in
  if cfg.Config.legacy_hot_loop || cfg.Config.nl_prefetcher || fill_reads_sandbox t
  then prime_with_fills_simulated t
  else begin
    for way = 0 to cfg.l1d_ways - 1 do
      for set = 0 to cfg.l1d_sets - 1 do
        Memsys.demand_fill t.ms (Memsys.line_of t.ms (prime_addr cfg ~way ~set))
      done
    done;
    Memsys.reset_tlb t.ms;
    Memsys.reset_l1i t.ms;
    no_work
  end

(** Prime by direct invalidation (the simulator hook used for CleanupSpec
    and SpecLFB in §3.5): clean caches, no simulated instructions. *)
let prime_with_flush t = Memsys.flush_caches t.ms

(* ------------------------------------------------------------------ *)
(* Microarchitectural state extraction                                 *)
(* ------------------------------------------------------------------ *)

let l1d_tags t = Memsys.l1d_tags t.ms
let l1i_tags t = Memsys.l1i_tags t.ms
let tlb_pages t = Memsys.tlb_pages t.ms

let bp_state t =
  Array.append (Branch_pred.state_words t.bp) (Mdp.state_words t.mdp)

let access_order t = Memsys.access_order t.ms
let clear_access_order t = Memsys.clear_access_order t.ms

(* Order traces are materialized lazily from the persistent pipeline's
   scratch buffers: only utrace formats that actually observe ordering pay
   for the list construction. *)
let branch_prediction_order t =
  if t.orders_live then
    match t.pipe with Some p -> Pipeline.branch_prediction_order p | None -> []
  else t.last_bpred_order

let execution_order t =
  if t.orders_live then
    match t.pipe with Some p -> Pipeline.execution_order p | None -> []
  else t.last_exec_order

(* ------------------------------------------------------------------ *)
(* Predictor context snapshots (violation validation, §3.2)            *)
(* ------------------------------------------------------------------ *)

type context = {
  ctx_bp : Branch_pred.snapshot;
  ctx_mdp : Mdp.snapshot;
  ctx_ms : Memsys.snapshot;
}

let snapshot_context t =
  {
    ctx_bp = Branch_pred.snapshot t.bp;
    ctx_mdp = Mdp.snapshot t.mdp;
    ctx_ms = Memsys.snapshot t.ms;
  }

let restore_context t ctx =
  Branch_pred.restore t.bp ctx.ctx_bp;
  Mdp.restore t.mdp ctx.ctx_mdp;
  Memsys.restore t.ms ctx.ctx_ms

(* ------------------------------------------------------------------ *)
(* Full checkpoints (the pooled engine's boot-state reuse)             *)
(* ------------------------------------------------------------------ *)

(** A full post-boot checkpoint: microarchitectural context plus the
    committed architectural state (registers, flags, memory image).
    Restoring one is equivalent to a fresh [create] with the same
    configuration, minus the boot workload — which is exactly how the
    pooled execution engine amortizes simulator startup. *)
type snapshot = {
  s_ctx : context;
  s_regs : State.reg_snapshot;
  s_mem : Memory.t;  (** private copy, never aliased by the live state *)
}

let snapshot t =
  {
    s_ctx = snapshot_context t;
    s_regs = State.snapshot_regs t.arch;
    s_mem = Memory.copy t.arch.State.mem;
  }

let restore t (s : snapshot) =
  restore_context t s.s_ctx;
  State.restore_regs t.arch s.s_regs;
  Memory.blit ~src:s.s_mem ~dst:t.arch.State.mem;
  Memsys.reset_transient t.ms;
  Memsys.clear_access_order t.ms;
  t.orders_live <- false;
  t.last_bpred_order <- [];
  t.last_exec_order <- []

let reset_predictors t =
  Branch_pred.reset t.bp;
  Mdp.reset t.mdp

let flush_caches t = Memsys.flush_caches t.ms
let reset_tlb t = Memsys.reset_tlb t.ms
let reset_l1i t = Memsys.reset_l1i t.ms

(* cumulative counters (for throughput accounting) *)
let total_cycles t = t.total_cycles
let total_insts t = t.total_insts
let runs t = t.runs
let decodes t = t.decodes
