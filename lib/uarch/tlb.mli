(** Fully-associative data TLB with LRU replacement; part of the default
    microarchitectural trace (how STT's KV3 leak becomes visible). *)

type t

val page_bits : int
val create : ?metrics:Amulet_obs.Obs.t -> entries:int -> unit -> t
(** [metrics] (default noop) receives [uarch.tlb.hits/misses] counters. *)

val page_of_addr : int -> int
val probe : t -> int -> bool

val access : t -> int -> [ `Hit | `Miss ]
(** Translate: hit updates LRU, miss installs (evicting the LRU victim). *)

val pages : t -> int list
(** Cached page numbers, sorted. *)

val reset : t -> unit
(** Invalidate every entry and zero its page number and LRU stamp, so that
    two TLBs in the same state have equal {!snapshot}s. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
val pp : Format.formatter -> t -> unit
