(* The traced replica of a campaign: the same rounds [Amulet.Campaign.run]
   performs, driven from here through each layer's public functions, with a
   span around every call.  It redoes the small private steps of [Fuzzer]
   (contract-trace class grouping, coverage feedback, the static window) so
   that, on the same spec and seed, it reproduces the untraced campaign
   round for round; [Bench] checks that it does.

   Only what the benchmark's workloads use is replicated: L1D+TLB traces,
   the [Opt] executor mode, [Random] generation without a static filter and
   [Guided] generation with or without [Score]. *)

open Amulet
open Amulet_isa
open Amulet_uarch
open Amulet_defenses
open Amulet_contracts
module Corpus = Amulet_corpus.Corpus
module Coverage = Amulet_corpus.Coverage
module Generator = Amulet_corpus.Generator
module Mutate = Amulet_corpus.Mutate
module Rng = Amulet_corpus.Rng
module Leakcheck = Amulet_static.Leakcheck

type verdict = Clean | Found | Discarded

(* What the fidelity check compares, round by round. *)
type round_record = {
  verdict : verdict;
  inputs : int;  (* generated inputs run through the batch *)
  validations : int;  (* validation reruns *)
  identity : (int64 * int64 * int64) option;
      (* ctrace, trace a, trace b hashes of the round's violation *)
}

(* Counts recorded at the same boundaries as the spans. *)
type counts = {
  mutable gen_calls : int;
  mutable recorded : int;
  mutable admitted : int;
  mutable mutate_calls : int;
  mutable mutate_ok : int;
  mutable static_calls : int;
  mutable input_bytes : int;
  mutable ctrace_calls : int;
  mutable spec_steps : int;
  mutable mutants : int;
  mutable same_class : int;
  mutable prime_calls : int;
  mutable prime_cycles : int;
  mutable run_calls : int;
  mutable run_cycles : int;
  mutable run_insts : int;
  mutable run_squashes : int;
  mutable classes : int;
  mutable effective_classes : int;
  mutable mismatches : int;
  mutable candidates : int;
  mutable confirmed : int;
  mutable validate_runs : int;
  mutable classify_calls : int;
  mutable classify_reruns : int;
  mutable journal_calls : int;
  mutable journal_bytes : int;
}

let zero_counts () =
  {
    gen_calls = 0;
    recorded = 0;
    admitted = 0;
    mutate_calls = 0;
    mutate_ok = 0;
    static_calls = 0;
    input_bytes = 0;
    ctrace_calls = 0;
    spec_steps = 0;
    mutants = 0;
    same_class = 0;
    prime_calls = 0;
    prime_cycles = 0;
    run_calls = 0;
    run_cycles = 0;
    run_insts = 0;
    run_squashes = 0;
    classes = 0;
    effective_classes = 0;
    mismatches = 0;
    candidates = 0;
    confirmed = 0;
    validate_runs = 0;
    classify_calls = 0;
    classify_reruns = 0;
    journal_calls = 0;
    journal_bytes = 0;
  }

type result = {
  rounds : round_record array;
  violations : Violation.t list;  (* in detection order, signed *)
  leak_classes : string list;  (* distinct, sorted *)
  counts : counts;
  spans : Span.t;
  round_wall : float;
      (* summed duration of the root spans: every round plus the final
         checkpoint *)
  wall : float;  (* whole campaign, first round to last checkpoint *)
}

(* Mutable per-campaign environment. *)
type env = {
  spec : Run_spec.t;
  defense : Defense.t;
  contract : Contract.t;
  gcfg : Generator.config;
  sim : Simulator.t;
  boot : Simulator.snapshot;
  tr : Span.t;
  c : counts;
  faults : Fault.Counters.t;  (* discarded rounds by fault class *)
  mutable rng : Rng.t;
}

type case = {
  input : Input.t;
  ctrace_hash : int64;
  shape_hash : int64;
  spec_steps : int;
  mutable trace : Utrace.t option;
  mutable context : Simulator.context option;
  mutable stats : Simulator.run_stats option;
}

let span e name f = Span.record e.tr name f

(* The simulator the replica drives: a fresh boot plus its checkpoint,
   exactly what the pooled engine keeps.  Built outside any measurement. *)
let boot_simulator (spec : Run_spec.t) =
  let defense = spec.Run_spec.defense in
  let config =
    match spec.Run_spec.sim_config with
    | Some c -> c
    | None -> Defense.config defense
  in
  let sim =
    Simulator.create ~boot_insts:spec.Run_spec.boot_insts
      ~pages:defense.Defense.sandbox_pages config
  in
  (sim, Simulator.snapshot sim)

let supported (spec : Run_spec.t) =
  spec.Run_spec.trace_format = Utrace.L1d_tlb
  && spec.Run_spec.mode = Executor.Opt
  && spec.Run_spec.chaos = None
  && (match spec.Run_spec.generation, spec.Run_spec.static_filter with
     | Run_spec.Random _, Run_spec.Off -> true
     | Run_spec.Guided _, (Run_spec.Off | Run_spec.Score) -> true
     | _ -> false)

(* --- input and contract-trace layers ----------------------------------- *)

let ctrace e decoded flat input ~collect_taint =
  let state = span e "input:to_state" (fun () -> Input.to_state input) in
  let r =
    span e "ctrace" (fun () ->
        Leakage_model.collect ~collect_taint ~decoded e.contract flat state)
  in
  e.c.ctrace_calls <- e.c.ctrace_calls + 1;
  r

let case_of input (r : Leakage_model.result) =
  {
    input;
    ctrace_hash = r.Leakage_model.ctrace_hash;
    shape_hash = r.Leakage_model.shape_hash;
    spec_steps = r.Leakage_model.spec_steps;
    trace = None;
    context = None;
    stats = None;
  }

(* Base inputs and their taint-directed mutants, in [Fuzzer]'s order.
   [Error] when the contract model faults on a base input. *)
let build_cases e flat =
  let decoded = span e "ctrace:decode" (fun () -> Decoded.decode flat) in
  let pages = e.gcfg.Generator.sandbox_pages in
  let cases = ref [] in
  let fault = ref None in
  for _ = 1 to e.spec.Run_spec.n_base_inputs do
    if !fault = None then begin
      let base = span e "input:gen" (fun () -> Input.generate e.rng ~pages) in
      e.c.input_bytes <- e.c.input_bytes + Bytes.length base.Input.mem;
      let r = ctrace e decoded flat base ~collect_taint:true in
      match r.Leakage_model.fault with
      | Some f -> fault := Some (Fault.of_run_fault f)
      | None -> (
          e.c.spec_steps <- e.c.spec_steps + r.Leakage_model.spec_steps;
          cases := case_of base r :: !cases;
          match r.Leakage_model.taint with
          | None -> ()
          | Some taint ->
              for _ = 1 to e.spec.Run_spec.boosts_per_input do
                let m =
                  span e "input:mutate" (fun () ->
                      Input.mutate_free e.rng taint base)
                in
                e.c.input_bytes <- e.c.input_bytes + Bytes.length m.Input.mem;
                let mr = ctrace e decoded flat m ~collect_taint:false in
                if mr.Leakage_model.fault = None then begin
                  e.c.mutants <- e.c.mutants + 1;
                  e.c.spec_steps <- e.c.spec_steps + mr.Leakage_model.spec_steps;
                  if mr.Leakage_model.ctrace_hash = r.Leakage_model.ctrace_hash
                  then e.c.same_class <- e.c.same_class + 1;
                  cases := case_of m mr :: !cases
                end
              done)
    end
  done;
  match !fault with
  | Some f -> Error f
  | None -> Ok (Array.of_list (List.rev !cases))

(* --- simulator layers ----------------------------------------------------- *)

let extract e =
  let sim = e.sim in
  Utrace.State_snapshot
    {
      l1d = Simulator.l1d_tags sim;
      tlb = Simulator.tlb_pages sim;
      l1i =
        (if e.defense.Defense.include_l1i then Some (Simulator.l1i_tags sim)
         else None);
    }

(* [Executor.run] without a context, in [Opt] mode: prime, load, run,
   extract.  Returns the simulator's fault, if any. *)
let run_case e flat (c : case) =
  span e "sim.prime" (fun () ->
      match e.defense.Defense.priming with
      | Defense.Fill_sets ->
          let s = Simulator.prime_with_fills e.sim in
          e.c.prime_cycles <- e.c.prime_cycles + s.Simulator.cycles
      | Defense.Flush -> Simulator.prime_with_flush e.sim);
  e.c.prime_calls <- e.c.prime_calls + 1;
  let state = span e "input:to_state" (fun () -> Input.to_state c.input) in
  let stats =
    span e "sim.run" (fun () ->
        Simulator.load_state e.sim state;
        Simulator.clear_access_order e.sim;
        c.context <- Some (Simulator.snapshot_context e.sim);
        Simulator.run e.sim flat)
  in
  e.c.run_calls <- e.c.run_calls + 1;
  e.c.run_cycles <- e.c.run_cycles + stats.Simulator.cycles;
  e.c.run_insts <- e.c.run_insts + stats.Simulator.committed_insts;
  e.c.run_squashes <- e.c.run_squashes + stats.Simulator.squashes;
  c.stats <- Some stats;
  c.trace <- Some (span e "utrace" (fun () -> extract e));
  Option.map Fault.of_run_fault stats.Simulator.fault

(* [Executor.run ~context]: a validation rerun, charged wholly to the
   "validate" span that encloses it.  The context snapshot is unused but
   kept, so the rerun does the work it does inside the program. *)
let rerun e flat ctx input =
  Simulator.restore_context e.sim ctx;
  Simulator.load_state e.sim (Input.to_state input);
  Simulator.clear_access_order e.sim;
  ignore (Simulator.snapshot_context e.sim);
  ignore (Simulator.run e.sim flat);
  e.c.validate_runs <- e.c.validate_runs + 1;
  extract e

(* [Fuzzer.validate]: each input's starting context in turn. *)
let validate e flat a b =
  span e "validate" (fun () ->
      let try_ctx ctx =
        let ta = rerun e flat ctx a.input in
        let tb = rerun e flat ctx b.input in
        if Utrace.equal ta tb then None else Some (ta, tb, ctx)
      in
      List.fold_left
        (fun acc ctx ->
          match acc with Some _ -> acc | None -> try_ctx ctx)
        None
        (List.filter_map Fun.id [ a.context; b.context ]))

(* --- compare layer -------------------------------------------------------- *)

(* [Fuzzer.classes_of]: the same table and fold, so the class order (and
   hence which candidate pair is validated first) is the same. *)
let classes_of cases =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i c ->
      let existing = Option.value (Hashtbl.find_opt tbl c.ctrace_hash) ~default:[] in
      Hashtbl.replace tbl c.ctrace_hash (i :: existing))
    cases;
  Hashtbl.fold (fun h members acc -> (h, List.rev members) :: acc) tbl []

let find_violation e flat (arr : case array) =
  span e "compare" (fun () ->
      let classes = classes_of (Array.to_list arr) in
      e.c.classes <- e.c.classes + List.length classes;
      List.iter
        (fun (_, m) ->
          if List.length m >= 2 then
            e.c.effective_classes <- e.c.effective_classes + 1)
        classes;
      let candidate = ref None in
      List.iter
        (fun (_, members) ->
          match members with
          | first :: rest when !candidate = None ->
              let a = arr.(first) in
              List.iter
                (fun j ->
                  if !candidate = None then
                    let b = arr.(j) in
                    match a.trace, b.trace with
                    | Some ta, Some tb when not (Utrace.equal ta tb) -> (
                        e.c.mismatches <- e.c.mismatches + 1;
                        e.c.candidates <- e.c.candidates + 1;
                        match validate e flat a b with
                        | Some (ta, tb, ctx) ->
                            e.c.confirmed <- e.c.confirmed + 1;
                            candidate := Some (a, b, ta, tb, ctx)
                        | None -> ())
                    | _ -> ())
                rest
          | _ -> ())
        classes;
      Option.map
        (fun (a, b, ta, tb, ctx) ->
          {
            Violation.program = flat;
            program_text = Format.asprintf "%a" Program.pp_flat flat;
            input_a = a.input;
            input_b = b.input;
            trace_a = ta;
            trace_b = tb;
            context = ctx;
            ctrace_hash = a.ctrace_hash;
            trace_a_hash = Utrace.hash ta;
            trace_b_hash = Utrace.hash tb;
            contract = e.contract;
            defense_name = e.defense.Defense.name;
            detection_seconds = 0.;
            signature = None;
          })
        !candidate)

(* [Fuzzer.feedback_of]. *)
let feedback_of (arr : case array) : Coverage.feedback =
  let fnv_prime = 0x100000001b3L in
  let shape_hash =
    Array.fold_left
      (fun h c -> Int64.mul (Int64.logxor h c.shape_hash) fnv_prime)
      0xcbf29ce484222325L arr
  in
  let classes = Hashtbl.create 16 in
  Array.iter (fun c -> Hashtbl.replace classes c.ctrace_hash ()) arr;
  let sum f =
    Array.fold_left
      (fun a c -> match c.stats with Some s -> a + f s | None -> a)
      0 arr
  in
  {
    Coverage.shape_hash;
    ctrace_classes = Hashtbl.length classes;
    spec_steps = Array.fold_left (fun a c -> a + c.spec_steps) 0 arr;
    cycles = sum (fun s -> s.Simulator.cycles);
    committed_insts = sum (fun s -> s.Simulator.committed_insts);
    squashes = sum (fun s -> s.Simulator.squashes);
    squashed_insts = sum (fun s -> s.Simulator.squashed_insts);
    spec_issued = sum (fun s -> s.Simulator.spec_issued);
    mispredicts = sum (fun s -> s.Simulator.mispredicts);
  }

(* --- one program ---------------------------------------------------------- *)

type tested = {
  verdict : verdict;
  violation : Violation.t option;
  inputs : int;
  cases : case array option;  (* present when the batch completed *)
}

(* [Fuzzer.test_program]: a faulting round is tallied by fault class and
   discarded. *)
let test_program e flat =
  let discard ?(inputs = 0) f =
    Fault.Counters.record e.faults f;
    { verdict = Discarded; violation = None; inputs; cases = None }
  in
  match build_cases e flat with
  | Error f -> discard f
  | Ok [||] -> discard Fault.Empty_population
  | Ok arr -> (
      span e "sim.restore" (fun () -> Simulator.restore e.sim e.boot);
      let n = Array.length arr in
      let i = ref 0 in
      let fault = ref None in
      while !fault = None && !i < n do
        fault := run_case e flat arr.(!i);
        incr i
      done;
      match !fault with
      | Some f -> discard ~inputs:!i f
      | None -> (
          match find_violation e flat arr with
          | Some v -> { verdict = Found; violation = Some v; inputs = n; cases = Some arr }
          | None -> { verdict = Clean; violation = None; inputs = n; cases = Some arr }))

(* --- generation layers ---------------------------------------------------- *)

let gen_fresh e () =
  e.c.gen_calls <- e.c.gen_calls + 1;
  span e "gen" (fun () -> Generator.generate_flat ~cfg:e.gcfg e.rng)

(* [Fuzzer.static_window]. *)
let static_window (contract : Contract.t) =
  match contract.Contract.speculation with
  | Contract.Conditional_branches { window; _ } -> max window Contract.default_window
  | Contract.No_speculation -> Contract.default_window

let static_bonus e flat =
  match e.spec.Run_spec.static_filter with
  | Run_spec.Score ->
      e.c.static_calls <- e.c.static_calls + 1;
      span e "static" (fun () ->
          Leakcheck.score
            (Leakcheck.analyze ~window:(static_window e.contract)
               ~sandbox_bytes:(e.defense.Defense.sandbox_pages * Amulet_emu.Memory.page_size)
               flat))
  | Run_spec.Off | Run_spec.Screen -> 0

let guided_round e corpus =
  let params = Corpus.params corpus in
  let parent, flat =
    match span e "corpus:next" (fun () -> Corpus.next corpus e.rng) with
    | Corpus.Fresh -> (None, gen_fresh e ())
    | Corpus.Mutate entry -> (
        e.c.mutate_calls <- e.c.mutate_calls + 1;
        match
          span e "corpus:mutate" (fun () ->
              Mutate.mutate ~cfg:e.gcfg ~energy:params.Corpus.energy e.rng
                entry.Corpus.program)
        with
        | Some (m, _) ->
            e.c.mutate_ok <- e.c.mutate_ok + 1;
            (Some entry, m)
        | None -> (None, gen_fresh e ()))
  in
  let bonus = static_bonus e flat in
  let t = test_program e flat in
  (match t.verdict, t.cases with
  | (Clean | Found), Some arr ->
      let fb = span e "corpus:feedback" (fun () -> feedback_of arr) in
      let novel = span e "corpus:observe" (fun () -> Corpus.observe corpus fb) in
      let before = Corpus.size corpus + Corpus.evictions corpus in
      span e "corpus:record" (fun () ->
          Corpus.record corpus ?parent ~program:flat ~novel
            ~violation:(t.verdict = Found) ~bonus ());
      e.c.recorded <- e.c.recorded + 1;
      if Corpus.size corpus + Corpus.evictions corpus > before then
        e.c.admitted <- e.c.admitted + 1
  | _ -> ());
  span e "corpus:tick" (fun () -> Corpus.tick corpus);
  t

(* [Campaign.classify_one]: a freshly booted executor per violation. *)
let classify e v =
  let stats = Stats.create () in
  let ex =
    span e "classify:boot" (fun () ->
        let ex =
          Executor.create ~mode:Executor.Opt ?sim_config:e.spec.Run_spec.sim_config
            ~format:e.spec.Run_spec.trace_format e.defense stats
        in
        Executor.start_program ex;
        ex)
  in
  let cls = span e "classify" (fun () -> Analysis.classify_violation ex v) in
  e.c.classify_calls <- e.c.classify_calls + 1;
  e.c.classify_reruns <- e.c.classify_reruns + Stats.test_cases stats;
  (Analysis.class_name cls, Violation.with_signature (Analysis.class_name cls) v)

(* --- the campaign --------------------------------------------------------- *)

(* Rounds between journal checkpoints; must equal [Campaign.run]'s default
   [checkpoint_every]. *)
let checkpoint_every = 10

(* Replicate [Campaign.run ?journal_path spec] on a simulator booted by
   {!boot_simulator}. *)
let run ?journal_path ~sim:(sim, boot) (spec : Run_spec.t) : result =
  if not (supported spec) then invalid_arg "Replica.run: unsupported spec";
  let defense = spec.Run_spec.defense in
  let contract = Option.value spec.Run_spec.contract ~default:defense.Defense.contract in
  let gcfg =
    {
      (Run_spec.generator_config spec) with
      Generator.sandbox_pages = defense.Defense.sandbox_pages;
    }
  in
  let corpus =
    Option.map
      (fun params ->
        Corpus.create ~params
          ~sandbox_bytes:(defense.Defense.sandbox_pages * Amulet_emu.Memory.page_size)
          ())
      (Run_spec.corpus_params spec)
  in
  let e =
    {
      spec;
      defense;
      contract;
      gcfg;
      sim;
      boot;
      tr = Span.create ();
      c = zero_counts ();
      faults = Fault.Counters.create ();
      rng = Rng.create ~seed:spec.Run_spec.seed;
    }
  in
  let rounds =
    Array.make spec.Run_spec.rounds
      ({ verdict = Clean; inputs = 0; validations = 0; identity = None } : round_record)
  in
  let violations = ref [] in
  let classes = ref [] in
  let discarded = ref 0 in
  (* host seconds between finds, timed as [Campaign.run] times them *)
  let detection_times = ref [] in
  let started = Unix.gettimeofday () in
  let last_find = ref started in
  let checkpoint programs =
    match journal_path with
    | None -> ()
    | Some path ->
        span e "journal" (fun () ->
            Journal.save
              {
                Journal.seed = spec.Run_spec.seed;
                n_programs = spec.Run_spec.rounds;
                defense_name = defense.Defense.name;
                contract_name = contract.Contract.name;
                programs_run = programs;
                discarded = !discarded;
                test_cases = e.c.run_calls + e.c.validate_runs;
                fault_counts = Fault.Counters.to_list e.faults;
                detection_times = List.rev !detection_times;
                corpus = Option.map Corpus.to_string corpus;
                violations = List.rev_map Violation_io.of_violation !violations;
              }
              path);
        e.c.journal_calls <- e.c.journal_calls + 1;
        e.c.journal_bytes <- e.c.journal_bytes + (Unix.stat path).Unix.st_size
  in
  for i = 0 to spec.Run_spec.rounds - 1 do
    Span.set_round e.tr i;
    span e "round" (fun () ->
        let validations0 = e.c.validate_runs in
        e.rng <- Rng.create ~seed:(Campaign.round_seed spec.Run_spec.seed i);
        let t =
          match corpus with
          | Some c -> guided_round e c
          | None -> test_program e (gen_fresh e ())
        in
        let identity =
          match t.violation with
          | None -> None
          | Some v ->
              let found_at = Unix.gettimeofday () in
              detection_times := (found_at -. !last_find) :: !detection_times;
              last_find := found_at;
              let cls, signed =
                if spec.Run_spec.classify then
                  let cls, signed = classify e v in
                  (Some cls, signed)
                else (None, v)
              in
              Option.iter (fun c -> classes := c :: !classes) cls;
              violations := signed :: !violations;
              Some (v.Violation.ctrace_hash, v.Violation.trace_a_hash, v.Violation.trace_b_hash)
        in
        if t.verdict = Discarded then incr discarded;
        rounds.(i) <-
          ({
            verdict = t.verdict;
            inputs = t.inputs;
            validations = e.c.validate_runs - validations0;
            identity;
          } : round_record);
        if (i + 1) mod checkpoint_every = 0 then checkpoint (i + 1))
  done;
  Span.set_round e.tr spec.Run_spec.rounds;
  checkpoint spec.Run_spec.rounds;
  let wall = Unix.gettimeofday () -. started in
  let round_wall =
    List.fold_left
      (fun acc (s : Span.span) ->
        if s.Span.parent < 0 then acc +. (s.Span.stop -. s.Span.start) else acc)
      0. (Span.spans e.tr)
  in
  {
    rounds;
    violations = List.rev !violations;
    leak_classes = List.sort_uniq compare !classes;
    counts = e.c;
    spans = e.tr;
    round_wall;
    wall;
  }
