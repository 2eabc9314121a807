(** Catalogue of the secure-speculation countermeasures under test.

    Each entry pairs a simulator configuration (the defense mechanism plus
    any implementation bugs of the released artifact, see
    {!Amulet_uarch.Config}) with the leakage contract the paper tests it
    against (§3.1: "we test them against a contract that matches their
    security guarantees") and the cache-priming style its harness uses
    (§3.5). *)

open Amulet_uarch
open Amulet_contracts

(** How the executor initializes the cache state before each input. *)
type priming =
  | Fill_sets
      (** load [sets x ways] out-of-sandbox lines so every L1D set starts
          full (InvisiSpec, STT) — makes evictions visible; the fill is
          installed directly, at no simulated-instruction cost *)
  | Flush
      (** invalidate caches via the simulator hook (CleanupSpec, SpecLFB) —
          fast, installs-only visibility *)

type t = {
  name : string;
  description : string;
  defense : Config.defense;
  contract : Contract.t;
  priming : priming;
  sandbox_pages : int;
      (** 1 when the TLB is unprotected (so TLB state cannot produce noise
          violations); 128 for STT, which is tested for TLB leaks too *)
  include_l1i : bool;  (** include L1I tags in the default trace *)
}

(* ------------------------------------------------------------------ *)
(* Presets                                                             *)
(* ------------------------------------------------------------------ *)

let baseline =
  {
    name = "baseline";
    description = "unprotected out-of-order CPU (gem5 O3 analogue)";
    defense = Config.Baseline;
    contract = Contract.ct_seq;
    priming = Fill_sets;
    sandbox_pages = 1;
    include_l1i = false;
  }

(** InvisiSpec (Futuristic), as released: carries the UV1 speculative-
    eviction bug. *)
let invisispec =
  {
    name = "invisispec";
    description = "InvisiSpec (Futuristic): invisible speculative loads + expose";
    defense = Config.Invisispec { Config.iv_patched_eviction = false };
    contract = Contract.ct_seq;
    priming = Fill_sets;
    sandbox_pages = 1;
    include_l1i = false;
  }

(** InvisiSpec with the UV1 patch applied (paper §4.5.1). *)
let invisispec_patched =
  {
    invisispec with
    name = "invisispec-patched";
    defense = Config.Invisispec { Config.iv_patched_eviction = true };
  }

(** CleanupSpec, as released: UV3 (stores not cleaned) and UV4 (split
    requests not cleaned) bugs present. *)
let cleanupspec =
  {
    name = "cleanupspec";
    description = "CleanupSpec: speculative cache changes undone on squash";
    defense =
      Config.Cleanupspec
        { Config.cs_patched_store_cleanup = false; cs_patched_split_cleanup = false };
    contract = Contract.ct_seq;
    priming = Flush;
    sandbox_pages = 1;
    include_l1i = false;
  }

(** CleanupSpec with the UV3 store-cleanup patch (Table 8, "Patched"). *)
let cleanupspec_patched =
  {
    cleanupspec with
    name = "cleanupspec-patched";
    defense =
      Config.Cleanupspec
        { Config.cs_patched_store_cleanup = true; cs_patched_split_cleanup = false };
  }

(** CleanupSpec with all implementation bugs patched and the L1I cache
    included in the trace — the configuration under which the unXpec timing
    channel (KV2) becomes visible: input-dependent cleanup latency changes
    how far the front-end prefetches before the test ends. *)
let cleanupspec_unxpec =
  {
    cleanupspec with
    name = "cleanupspec-unxpec";
    description = "CleanupSpec (fully patched), L1I included in the trace (KV2 study)";
    defense =
      Config.Cleanupspec
        { Config.cs_patched_store_cleanup = true; cs_patched_split_cleanup = true };
    include_l1i = true;
  }

(** InvisiSpec with the L1I cache included in the trace (the KV1 study:
    InvisiSpec does not protect the instruction cache). *)
let invisispec_l1i =
  {
    invisispec_patched with
    name = "invisispec-l1i";
    description = "InvisiSpec (patched), L1I included in the trace (KV1 study)";
    include_l1i = true;
  }

(** STT (Futuristic), as released: KV3 (tainted stores fill the TLB). *)
let stt =
  {
    name = "stt";
    description = "STT (Futuristic): speculative taint tracking";
    defense = Config.Stt { Config.stt_patched_store_tlb = false };
    contract = Contract.arch_seq;
    priming = Fill_sets;
    sandbox_pages = 128;
    include_l1i = false;
  }

let stt_patched =
  {
    stt with
    name = "stt-patched";
    defense = Config.Stt { Config.stt_patched_store_tlb = true };
  }

(** SpecLFB, as released: UV6 (first speculative load unprotected). *)
let speclfb =
  {
    name = "speclfb";
    description = "SpecLFB: speculative misses parked in the line-fill buffer";
    defense = Config.Speclfb { Config.lfb_patched_first_load = false };
    contract = Contract.ct_seq;
    priming = Flush;
    sandbox_pages = 1;
    include_l1i = false;
  }

let speclfb_patched =
  {
    speclfb with
    name = "speclfb-patched";
    defense = Config.Speclfb { Config.lfb_patched_first_load = true };
  }

(** Delay-on-Miss (Sakalis et al., "efficient invisible speculative
    execution"): speculative loads that miss the L1 simply wait until they
    are safe.  Conservative but structurally leak-free for the miss path;
    hit-path replacement state is the known residual channel. *)
let delay_on_miss =
  {
    name = "delay-on-miss";
    description = "Delay-on-Miss: speculative L1 misses wait until safe";
    defense = Config.Delay_on_miss;
    contract = Contract.ct_seq;
    priming = Fill_sets;
    sandbox_pages = 1;
    include_l1i = false;
  }

(** GhostMinion (Ainsworth, MICRO'21): the strictness-ordered redesign the
    paper names as the fix for the speculative-interference leaks (UV2) —
    speculative fills use dedicated MSHRs and a dedicated controller queue,
    so younger speculative work can never delay older accesses. *)
let ghostminion =
  {
    name = "ghostminion";
    description = "GhostMinion: strictness-ordered speculative buffer";
    defense = Config.Ghostminion;
    contract = Contract.ct_seq;
    priming = Fill_sets;
    sandbox_pages = 1;
    include_l1i = false;
  }

let all =
  [
    baseline;
    invisispec;
    invisispec_patched;
    invisispec_l1i;
    cleanupspec;
    cleanupspec_patched;
    cleanupspec_unxpec;
    stt;
    stt_patched;
    speclfb;
    speclfb_patched;
    delay_on_miss;
    ghostminion;
  ]

let find name =
  let canonical = String.lowercase_ascii name in
  List.find_opt (fun d -> d.name = canonical) all

(** Simulator configuration for this defense (optionally amplified with
    smaller structures, §3.4). *)
let config ?l1d_ways ?mshrs t =
  let base = Config.with_defense t.defense Config.default in
  match l1d_ways, mshrs with
  | None, None -> base
  | _ ->
      Config.amplified
        ?l1d_ways
        ?mshrs
        base

let pp fmt t = Format.fprintf fmt "%s (%s)" t.name t.contract.Contract.name
