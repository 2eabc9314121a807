(** Catalogue of the secure-speculation countermeasures under test: each
    entry pairs a simulator configuration (mechanism + the released
    artifact's bugs) with the contract the paper tests it against and its
    harness's cache-priming style (§3.5). *)

open Amulet_uarch
open Amulet_contracts

type priming =
  | Fill_sets
      (** fill every L1D set with out-of-sandbox lines (InvisiSpec, STT):
          evictions become visible.  The fill's effect is installed
          directly, see {!Amulet_uarch.Simulator.prime_with_fills} *)
  | Flush  (** invalidate via the simulator hook (CleanupSpec, SpecLFB) *)

type t = {
  name : string;
  description : string;
  defense : Config.defense;
  contract : Contract.t;
  priming : priming;
  sandbox_pages : int;
      (** 1 when the TLB is unprotected; 128 for STT (tested for TLB leaks) *)
  include_l1i : bool;  (** include L1I tags in the default trace *)
}

(** {1 Presets} *)

val baseline : t

val invisispec : t
(** As released: UV1 present. *)

val invisispec_patched : t

val invisispec_l1i : t
(** Patched, L1I in the trace (KV1 study). *)

val cleanupspec : t
(** As released: UV3 + UV4 present. *)

val cleanupspec_patched : t
(** UV3 fixed. *)

val cleanupspec_unxpec : t
(** Fully patched, L1I in the trace (KV2 study). *)

val stt : t
(** As released: KV3 present. *)

val stt_patched : t

val speclfb : t
(** As released: UV6 present. *)

val speclfb_patched : t

val delay_on_miss : t
(** Extension: speculative misses wait until safe. *)

val ghostminion : t
(** Extension: strictness-ordered speculative buffer. *)

val all : t list
val find : string -> t option

val config : ?l1d_ways:int -> ?mshrs:int -> t -> Config.t
(** Simulator configuration for the defense, optionally amplified with
    smaller contended structures (§3.4). *)

val pp : Format.formatter -> t -> unit
