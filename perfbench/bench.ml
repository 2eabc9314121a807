(* Campaign benchmark.

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Each workload is a fixed-seed, single-process, single-domain campaign run
   through [Campaign.run] on an injected pooled engine and [Stats] sink.  It
   is a closed loop with one caller: the next round starts when the previous
   one returns.  A run repeats the same campaign a fixed number of times
   per workload, each on a freshly set-up engine, and then while another
   fits in [--seconds]: every count must repeat exactly between
   repetitions, and each round's time is its fastest over the fixed
   repetitions.  Times are in reference seconds: host seconds scaled by a
   fixed kernel timed next to each measurement (see [ref_kernel]), so
   that the host's drifting speed does not show as a change of the
   program.

   [--trace 0] reports the end-to-end metrics of the untraced campaign.
   [--trace 1] alternates untraced campaigns with the traced replica
   ([Replica]), checks that the replica reproduces the campaign round for
   round, and reports per-layer metrics from the replica's spans.

   Every violation the untraced campaign reports is replayed on a fresh
   executor; a failed replay, a repetition whose counts differ, or a
   replica that disagrees with the campaign makes the run incorrect and the
   exit code 1.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open Amulet
open Amulet_defenses
module Corpus = Amulet_corpus.Corpus

let now = Unix.gettimeofday
let out_dir = ".bench_out"

(* ---------------------------------------------------------------------- *)
(* Workloads                                                              *)
(* ---------------------------------------------------------------------- *)

type workload = {
  name : string;
  spec : seed:int -> Run_spec.t;
  journal : bool;  (* checkpoint every 10 rounds, as a long campaign would *)
  reps : int;
      (* measured repetitions: fixed, so that the fastest-of-[reps] estimate
         does not depend on how fast the code under test is *)
  pairs : int;  (* traced/untraced pairs of a [--trace 1] run *)
}

(* Round counts, repetitions and pairs keep a run within 20 to 40 s on a
   2-core host. *)
let workloads =
  [
    (* Fill-set priming plus violation validation and classification. *)
    {
      name = "fill-random";
      spec = (fun ~seed -> Run_spec.make ~defense:Defense.invisispec ~seed ~rounds:100 ());
      journal = false;
      reps = 2;
      pairs = 2;
    };
    (* Flush priming on a patched defense: generation, corpus, static
       analysis, contract traces and journal I/O do the work.  CT-COND,
       because under CT-SEQ guided campaigns rediscover Spectre-v1 installs
       at a seed-dependent rate and the workload stops being clean. *)
    {
      name = "clean-guided";
      spec =
        (fun ~seed ->
          Run_spec.make ~defense:Defense.speclfb_patched
            ~contract:Amulet_contracts.Contract.ct_cond ~seed ~rounds:200
            ~generation:(Run_spec.guided ()) ~static_filter:Run_spec.Score ());
      journal = true;
      reps = 8;
      pairs = 4;
    };
    (* 128-page sandbox: fill priming and 512 KiB inputs.  One input pair
       per round keeps a round near 0.4 s; with 24 rounds the tail is their
       58th percentile. *)
    {
      name = "stt-sandbox";
      spec =
        (fun ~seed ->
          Run_spec.make ~defense:Defense.stt ~seed ~rounds:24 ~inputs:1 ~boosts:1 ());
      journal = false;
      reps = 2;
      pairs = 2;
    };
  ]

(* ---------------------------------------------------------------------- *)
(* Statistics                                                             *)
(* ---------------------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Distance between the first and third quartile (linear interpolation,
   as Python's statistics.quantiles computes it by default). *)
let iqr xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let q p =
    let m = float_of_int (n + 1) *. p in
    let j = int_of_float m in
    let d = m -. float_of_int j in
    if j < 1 then a.(0)
    else if j >= n then a.(n - 1)
    else a.(j - 1) +. (d *. (a.(j) -. a.(j - 1)))
  in
  if n < 2 then 0. else q 0.75 -. q 0.25

(* The highest percentile with at least ten samples beyond it, as
   (percentile, value); the maximum when there are ten samples or fewer. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n <= 10 then (100., a.(n - 1))
  else (100. *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* Reset VmHWM to the current resident set, so that it measures only what
   runs after this call.  Kernels without this interface keep the lifetime
   mark. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error e -> prerr_endline ("perfbench: VmHWM not reset: " ^ e)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  let v = scan () in
  close_in ic;
  v

(* ---------------------------------------------------------------------- *)
(* Host speed                                                             *)
(* ---------------------------------------------------------------------- *)

(* A fixed piece of work that touches nothing of the program: a chain of
   dependent loads and ALU operations over a 16 KiB table, about 1 ms on
   a 2-core host.  On a shared host the speed of the same code drifts by
   up to 2x over minutes as other tenants come and go; timing this kernel
   right next to each measurement tracks that drift.  It runs as two
   halves and keeps the faster, so that one preemption inside it does not
   count. *)
let ref_table = Array.init 2048 (fun i -> (i * 7919) land 2047)

let ref_half () =
  let t0 = now () in
  let x = ref 1 in
  for _ = 1 to 250_000 do
    x := ref_table.(!x land 2047) + ((!x lsl 3) lxor (!x lsr 2))
  done;
  let t = now () -. t0 in
  if !x = min_int then prerr_string "";
  t

let ref_kernel () =
  let a = ref_half () in
  2. *. Float.min a (ref_half ())

(* Reference seconds: host seconds scaled to a host on which [ref_kernel]
   takes [ref_nominal_s].  A host time [t] measured where the kernel took
   [k] is [t *. ref_nominal_s /. k] reference seconds. *)
let ref_nominal_s = 1e-3
let to_ref t k = t *. ref_nominal_s /. k

(* ---------------------------------------------------------------------- *)
(* Set-up: Engine.create, Engine.warm and corpus creation                 *)
(* ---------------------------------------------------------------------- *)

let setup (spec : Run_spec.t) =
  let defense = spec.Run_spec.defense in
  let k0 = ref_kernel () in
  let t0 = now () in
  let stats = Stats.create () in
  let engine =
    Engine.create ~boot_insts:spec.Run_spec.boot_insts
      ~format:spec.Run_spec.trace_format ?sim_config:spec.Run_spec.sim_config
      ~kind:spec.Run_spec.engine ~mode:spec.Run_spec.mode defense stats
  in
  Engine.warm engine;
  Option.iter
    (fun params ->
      ignore
        (Corpus.create ~params
           ~sandbox_bytes:(defense.Defense.sandbox_pages * Amulet_emu.Memory.page_size)
           ()))
    (Run_spec.corpus_params spec);
  let t = now () -. t0 in
  ((t, to_ref t ((k0 +. ref_kernel ()) /. 2.)), engine, stats)

(* ---------------------------------------------------------------------- *)
(* Untraced campaign                                                      *)
(* ---------------------------------------------------------------------- *)

type campaign = {
  wall : float;  (* host seconds, [ref_kernel] runs left out *)
  round_ms : float array;  (* host latency of each round, in round order *)
  round_ref_ms : float array;  (* the same in reference milliseconds *)
  inputs : int;  (* Engine.stats.inputs_run: generated test cases *)
  stats_test_cases : int;  (* Stats.test_cases: includes validation reruns *)
  records : Replica.round_record array;
  violations : Violation.t list;
  distinct_classes : int;
  discarded : int;
  peak_mb : float;  (* VmHWM when the campaign returned *)
}

let fault_total stats = List.fold_left (fun a (_, n) -> a + n) 0 (Stats.fault_counts stats)

let untraced ~engine ~stats ?journal_path (spec : Run_spec.t) =
  let rounds = spec.Run_spec.rounds in
  let records =
    Array.make rounds
      ({ verdict = Replica.Clean; inputs = 0; validations = 0; identity = None }
        : Replica.round_record)
  in
  let found = ref None in
  let lat = Array.make rounds 0. in
  let kernel = Array.make (rounds + 1) 0. in
  let inputs0 = (Engine.stats engine).Engine.inputs_run in
  let tc0 = Stats.test_cases stats in
  let prev_inputs = ref inputs0 in
  let prev_val = ref (Stats.validations stats) in
  let prev_faults = ref (fault_total stats) in
  let on_violation (v : Violation.t) =
    found :=
      Some (v.Violation.ctrace_hash, v.Violation.trace_a_hash, v.Violation.trace_b_hash)
  in
  (* a reference kernel run before the first round and after each round,
     outside the round's host time *)
  kernel.(0) <- ref_kernel ();
  let kernel_s = ref 0. in
  let started = now () in
  let prev = ref started in
  let on_round k =
    let t = now () in
    kernel.(k) <- ref_kernel ();
    lat.(k - 1) <- (t -. !prev) *. 1000.;
    prev := now ();
    kernel_s := !kernel_s +. (!prev -. t);
    let inputs = (Engine.stats engine).Engine.inputs_run in
    let vals = Stats.validations stats in
    let faults = fault_total stats in
    records.(k - 1) <-
      {
        verdict =
          (if !found <> None then Replica.Found
           else if faults > !prev_faults then Replica.Discarded
           else Replica.Clean);
        inputs = inputs - !prev_inputs;
        validations = vals - !prev_val;
        identity = !found;
      };
    found := None;
    prev_inputs := inputs;
    prev_val := vals;
    prev_faults := faults
  in
  let r =
    Campaign.run ~on_violation ~on_round ?journal_path ~engine:(engine, stats) spec
  in
  let wall = now () -. started -. !kernel_s in
  if r.Campaign.programs_run <> rounds || r.Campaign.budget_exhausted then
    failwith "campaign stopped early";
  {
    wall;
    round_ms = lat;
    round_ref_ms =
      (* round [i] ran between kernel runs [i] and [i + 1]; scale it by the
         median of the kernel runs [i - 1] to [i + 2], so that one slow
         kernel run, say right after a journal fsync, does not count *)
      Array.mapi
        (fun i t ->
          let window = List.filter (fun j -> j >= 0 && j <= rounds) [ i - 1; i; i + 1; i + 2 ] in
          to_ref t (median (List.map (fun j -> kernel.(j)) window)))
        lat;
    inputs = (Engine.stats engine).Engine.inputs_run - inputs0;
    stats_test_cases = Stats.test_cases stats - tc0;
    records;
    violations = r.Campaign.violations;
    distinct_classes = Campaign.unique_violations r;
    discarded = r.Campaign.discarded_programs;
    peak_mb = peak_rss_mb ();
  }

(* ---------------------------------------------------------------------- *)
(* Output correctness                                                     *)
(* ---------------------------------------------------------------------- *)

(* Replay a reported violation on a fresh executor from its recorded
   context: the two μarch traces must differ and hash as recorded, and the
   leakage model must give both inputs the recorded contract trace. *)
let replay (spec : Run_spec.t) (v : Violation.t) =
  let ex =
    Executor.create ~mode:Executor.Opt ?sim_config:spec.Run_spec.sim_config
      ~format:spec.Run_spec.trace_format spec.Run_spec.defense (Stats.create ())
  in
  let trace input =
    (Executor.run ex ~context:v.Violation.context v.Violation.program input)
      .Executor.trace
  in
  let ta = trace v.Violation.input_a in
  let tb = trace v.Violation.input_b in
  let ctrace input =
    (Amulet_contracts.Leakage_model.collect v.Violation.contract v.Violation.program
       (Input.to_state input))
      .Amulet_contracts.Leakage_model.ctrace_hash
  in
  (not (Utrace.equal ta tb))
  && Utrace.hash ta = v.Violation.trace_a_hash
  && Utrace.hash tb = v.Violation.trace_b_hash
  && ctrace v.Violation.input_a = v.Violation.ctrace_hash
  && ctrace v.Violation.input_b = v.Violation.ctrace_hash

let verdict_name = function
  | Replica.Clean -> "clean"
  | Replica.Found -> "violation"
  | Replica.Discarded -> "discarded"

(* First round where two round-by-round records disagree. *)
let first_mismatch (a : Replica.round_record array) (b : Replica.round_record array) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then
      if Array.length a = Array.length b then None
      else Some (Printf.sprintf "round count %d vs %d" (Array.length a) (Array.length b))
    else if a.(i) = b.(i) then go (i + 1)
    else
      Some
        (Printf.sprintf "round %d: %s/%d inputs/%d validations vs %s/%d inputs/%d validations%s"
           i (verdict_name a.(i).verdict) a.(i).inputs a.(i).validations
           (verdict_name b.(i).verdict) b.(i).inputs b.(i).validations
           (if a.(i).identity <> b.(i).identity then " (violation identity differs)"
            else ""))
  in
  go 0

(* The two journals hold the same checkpoint, apart from the host-timed
   gaps between finds. *)
let same_journal a b =
  let lines path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.starts_with ~prefix:"detection_times=" l))
  in
  lines a = lines b

(* ---------------------------------------------------------------------- *)
(* Output                                                                 *)
(* ---------------------------------------------------------------------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, value, unit) ->
      if Float.is_integer value then Printf.printf "  %-28s %16.0f %s\n" name value unit
      else Printf.printf "  %-28s %16.6g %s\n" name value unit)
    rows

(* ---------------------------------------------------------------------- *)
(* Driver                                                                 *)
(* ---------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload <fill-random|clean-guided|stt-sandbox> --seed <n> \
     --seconds <s> --trace <0|1>";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some w, Some s, Some secs, Some ("0" | "1" as t) when secs > 0. -> (
      match List.find_opt (fun x -> x.name = w) workloads with
      | Some wl -> (wl, s, secs, t = "1")
      | None -> usage ())
  | _ -> usage ()

(* Set-ups timed before each measured campaign; the last one's engine runs
   it. *)
let setups_per_rep = 5

(* Fastest latency of each round over repeated identical campaigns, in host
   or reference milliseconds.  The host's speed drifts by tens of percent
   over seconds when other tenants load it; the repetitions all do
   identical work (the exact-count checks prove it). *)
let best_rounds lat (runs : campaign list) =
  let n = Array.length (lat (List.hd runs)) in
  Array.init n (fun i -> List.fold_left (fun acc c -> Float.min acc (lat c).(i)) infinity runs)

(* Per-layer metrics of the traced runs, and the tracing overhead measured
   against the paired untraced runs. *)
let layer_metrics (pairs : (campaign * Replica.result) list) =
  let traced = List.map snd pairs in
  let reps = float_of_int (List.length traced) in
  let c = (List.hd traced).Replica.counts in
  (* self seconds per span name, summed over the traced runs *)
  let self = Hashtbl.create 32 in
  List.iter
    (fun (r : Replica.result) ->
      Hashtbl.iter
        (fun name s ->
          Hashtbl.replace self name (s +. Option.value (Hashtbl.find_opt self name) ~default:0.))
        (Span.self_by_name r.Replica.spans))
    traced;
  let wall = List.fold_left (fun a (r : Replica.result) -> a +. r.Replica.round_wall) 0. traced in
  let name_s n = Option.value (Hashtbl.find_opt self n) ~default:0. /. reps in
  let layer_s l =
    Hashtbl.fold (fun n s acc -> if Span.layer_of n = l then acc +. s else acc) self 0. /. reps
  in
  let share l = ratio (layer_s l *. reps) wall in
  (* paired: each traced campaign against the untraced one run beside it *)
  let overheads =
    List.map
      (fun ((u : campaign), (t : Replica.result)) ->
        let tu = float_of_int u.inputs /. u.wall in
        let tt = float_of_int u.inputs /. t.Replica.wall in
        (tu -. tt) /. tu)
      pairs
  in
  let f = float_of_int in
  [
    ("gen.calls", f c.gen_calls, "count");
    ("gen.self_s", layer_s "gen", "s");
    ("gen.share", share "gen", "ratio");
    ("corpus.self_s", layer_s "corpus", "s");
    ("corpus.admit_ratio", fratio c.admitted c.recorded, "ratio");
    ("mutate.ok_ratio", fratio c.mutate_ok c.mutate_calls, "ratio");
    ("corpus.share", share "corpus", "ratio");
    ("static.calls", f c.static_calls, "count");
    ("static.self_s", layer_s "static", "s");
    ("static.share", share "static", "ratio");
    ("input.gen_s", name_s "input:gen", "s");
    ("input.mutate_s", name_s "input:mutate", "s");
    ("input.to_state_s", name_s "input:to_state", "s");
    ("input.bytes", f c.input_bytes, "bytes");
    ("input.share", share "input", "ratio");
    ("ctrace.calls", f c.ctrace_calls, "count");
    ("ctrace.self_s", layer_s "ctrace", "s");
    ("ctrace.spec_steps", f c.spec_steps, "count");
    ("boost.same_class_ratio", fratio c.same_class c.mutants, "ratio");
    ("ctrace.share", share "ctrace", "ratio");
    ("sim.restore_s", layer_s "sim.restore", "s");
    ("sim.restore.share", share "sim.restore", "ratio");
    ("sim.prime.calls", f c.prime_calls, "count");
    ("sim.prime.self_s", layer_s "sim.prime", "s");
    ("sim.prime.cycles", f c.prime_cycles, "count");
    ("sim.prime.share", share "sim.prime", "ratio");
    ("sim.run.calls", f c.run_calls, "count");
    ("sim.run.self_s", layer_s "sim.run", "s");
    ("sim.run.cycles", f c.run_cycles, "count");
    ("sim.run.insts", f c.run_insts, "count");
    ("sim.run.squashes", f c.run_squashes, "count");
    ("sim.run.ns_per_cycle", 1e9 *. ratio (layer_s "sim.run") (f c.run_cycles), "ns/cycle");
    ("sim.run.share", share "sim.run", "ratio");
    ("utrace.self_s", layer_s "utrace", "s");
    ("utrace.share", share "utrace", "ratio");
    ("compare.self_s", layer_s "compare", "s");
    ("compare.classes", f c.classes, "count");
    ("compare.effective_classes", f c.effective_classes, "count");
    ("compare.effective_ratio", fratio c.effective_classes c.classes, "ratio");
    ("compare.mismatches", f c.mismatches, "count");
    ("compare.share", share "compare", "ratio");
    ("validate.runs", f c.validate_runs, "count");
    ("validate.self_s", layer_s "validate", "s");
    ("validate.confirm_ratio", fratio c.confirmed c.candidates, "ratio");
    ("validate.share", share "validate", "ratio");
    ("classify.calls", f c.classify_calls, "count");
    ("classify.boot_s", name_s "classify:boot", "s");
    ("classify.self_s", layer_s "classify", "s");
    ("classify.reruns", f c.classify_reruns, "count");
    ("classify.share", share "classify", "ratio");
    ("journal.calls", f c.journal_calls, "count");
    ("journal.self_s", layer_s "journal", "s");
    ("journal.bytes", f c.journal_bytes, "bytes");
    ("journal.share", share "journal", "ratio");
    ("other.share", share "round", "ratio");
    ("trace.overhead", median overheads, "ratio");
    ("trace.overhead_iqr", iqr overheads, "ratio");
    ("trace.pairs", f (List.length pairs), "count");
  ]

let () =
  let wl, seed, seconds, traced = parse_args () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let spec = wl.spec ~seed in
  let rounds = spec.Run_spec.rounds in
  let journal_path tag =
    if wl.journal then
      Some (Filename.concat out_dir (Printf.sprintf "%s-%s.journal" wl.name tag))
    else None
  in
  (* Every measured campaign runs on a freshly set-up engine, so set-up
     times are sampled across the whole run rather than in one burst. *)
  let setup_times = ref [] in
  let fresh_engine () =
    let engine = ref None in
    for _ = 1 to setups_per_rep do
      engine := None;
      Gc.compact ();
      let s, e, st = setup spec in
      setup_times := s :: !setup_times;
      engine := Some (e, st)
    done;
    Option.get !engine
  in
  let run_untraced (engine, stats) =
    Gc.compact ();
    reset_peak_rss ();
    untraced ~engine ~stats ?journal_path:(journal_path "untraced") spec
  in
  let run_traced sim =
    Gc.compact ();
    Replica.run ?journal_path:(journal_path "traced") ~sim spec
  in
  (* measure: [wl.reps] untraced campaigns, or [wl.pairs] traced/untraced
     pairs alternating which side goes first *)
  let deadline = now () +. seconds in
  let measured, traced_runs =
    if not traced then (List.init wl.reps (fun _ -> run_untraced (fresh_engine ())), [])
    else
      let sim = Replica.boot_simulator spec in
      let pairs =
        List.init wl.pairs (fun k ->
            let engine = fresh_engine () in
            if k mod 2 = 0 then
              let u = run_untraced engine in
              (u, run_traced sim)
            else
              let t = run_traced sim in
              (run_untraced engine, t))
      in
      (List.map fst pairs, pairs)
  in
  (* then, while another campaign fits before the time is up, further
     untraced campaigns that only the exact-count checks use *)
  let extra = ref [] in
  let last_wall = (List.hd (List.rev measured)).wall in
  if now () +. last_wall < deadline then begin
    let _, e, st = setup spec in
    while now () +. last_wall < deadline do
      extra := run_untraced (e, st) :: !extra
    done
  end;
  let untraced_runs = measured @ List.rev !extra in
  (* check, after measuring *)
  let errors = ref [] in
  let error msg = errors := msg :: !errors in
  let first = List.hd untraced_runs in
  List.iter
    (fun (c : campaign) ->
      match first_mismatch first.records c.records with
      | Some m -> error ("repeated campaign differs: " ^ m)
      | None ->
          if c.inputs <> first.inputs || c.distinct_classes <> first.distinct_classes then
            error "repeated campaign differs in totals")
    untraced_runs;
  List.iter
    (fun (_, (r : Replica.result)) ->
      match first_mismatch first.records r.Replica.rounds with
      | Some m -> error ("traced run disagrees with the campaign: " ^ m)
      | None ->
          if List.length r.Replica.leak_classes <> first.distinct_classes then
            error "traced run disagrees with the campaign on distinct classes";
          if r.Replica.counts <> (snd (List.hd traced_runs)).Replica.counts then
            error "repeated traced runs differ in counts")
    traced_runs;
  (match journal_path "untraced", journal_path "traced" with
  | Some u, Some t when traced_runs <> [] && not (same_journal u t) ->
      error "traced run's journal differs from the campaign's"
  | _ -> ());
  let n_violations = List.length first.violations in
  let replay_failures =
    List.length (List.filter (fun v -> not (replay spec v)) first.violations)
  in
  if replay_failures > 0 then
    error (Printf.sprintf "%d of %d violations failed replay" replay_failures n_violations);
  (* report *)
  let reps = List.length untraced_runs in
  let f = float_of_int in
  (* end to end in reference time; the same in host time for the table *)
  let latency lat_of =
    let best = best_rounds lat_of measured in
    let lat = Array.to_list best in
    let secs = Array.fold_left ( +. ) 0. best /. 1000. in
    (secs, lat, tail lat)
  in
  let ref_s, lat, (pct, tail_ms) = latency (fun c -> c.round_ref_ms) in
  let host_s, host_lat, (_, host_tail_ms) = latency (fun c -> c.round_ms) in
  let e2e =
    [
      ("tc_per_s", f first.inputs /. ref_s, "1/s");
      ("round_ms_p50", median lat, "ms");
      ("round_ms_tail", tail_ms, "ms");
      ("setup_s", median (List.map snd !setup_times), "s");
      (* since set-up ended, median over the measured campaigns *)
      ("peak_rss_mb", median (List.map (fun c -> c.peak_mb) measured), "MB");
    ]
  in
  let host =
    [
      ("host.tc_per_s", f first.inputs /. host_s, "1/s");
      ("host.round_ms_p50", median host_lat, "ms");
      ("host.round_ms_tail", host_tail_ms, "ms");
      ("host.setup_s", median (List.map fst !setup_times), "s");
    ]
  in
  let detection =
    [
      ("vp1k", 1000. *. fratio n_violations first.inputs, "1/1000tc");
      ("violations_per_min", f n_violations /. (ref_s /. 60.), "1/min");
      ("distinct_classes", f first.distinct_classes, "count");
      ("failed_frac", fratio (first.discarded + replay_failures) rounds, "ratio");
    ]
  in
  let counts =
    [
      ("rounds", f rounds, "count");
      ("inputs_run", f first.inputs, "count");
      ("stats.test_cases", f first.stats_test_cases, "count");
      ( "validate.runs",
        f (Array.fold_left (fun a (r : Replica.round_record) -> a + r.validations) 0 first.records),
        "count" );
      ("violations", f n_violations, "count");
      ("distinct_classes", f first.distinct_classes, "count");
      ("discarded", f first.discarded, "count");
      ("replay_failures", f replay_failures, "count");
    ]
  in
  Printf.printf
    "workload %s, seed %d, %d campaigns of %d rounds (%d measured), closed loop, 1 caller\n"
    wl.name seed reps rounds (List.length measured);
  print_table "end to end (untraced, reference time)"
    (e2e @ detection
    @ [ ("round_ms_tail.percentile", pct, "%"); ("round_ms.rounds", f (List.length lat), "count") ]);
  print_table "end to end (untraced, host time)" host;
  print_table "exact counts (per campaign)" counts;
  let metrics =
    match traced_runs with
    | [] -> e2e
    | (_, t) :: _ ->
        Span.write t.Replica.spans (Filename.concat out_dir (wl.name ^ "-spans.tsv"));
        let layers = layer_metrics traced_runs in
        let campaign =
          List.map
            (fun (name, v, unit) -> ("campaign." ^ name, v, unit))
            ([
               ("inputs_run", f first.inputs, "count");
               ("test_cases_stats", f first.stats_test_cases, "count");
               ("violations", f n_violations, "count");
             ]
            @ detection)
        in
        print_table "per layer (traced)" layers;
        layers @ campaign
  in
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) (List.rev !errors);
  let correct = !errors = [] in
  print_result ~correct ~attempted:(rounds * reps)
    ~failed:(reps * (first.discarded + replay_failures))
    (if correct then metrics else []);
  exit (if correct then 0 else 1)
