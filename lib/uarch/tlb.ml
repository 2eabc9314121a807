(** Fully-associative data TLB with LRU replacement.

    Entries map virtual page numbers (address / 4096; virtual = physical in
    SE mode).  The final set of cached page numbers is part of the default
    microarchitectural trace, which is how the STT speculative-store leak
    (KV3) becomes visible.

    Like {!Cache}, the representation is structure-of-arrays so snapshots
    are array copies and restores are blits. *)

let page_bits = 12

type t = {
  pages_a : int array;
  valid_a : bool array;
  lru_a : int array;
  mutable tick : int;
  m_hits : Amulet_obs.Obs.counter;
  m_misses : Amulet_obs.Obs.counter;
}

let create ?(metrics = Amulet_obs.Obs.noop) ~entries () =
  assert (entries > 0);
  {
    pages_a = Array.make entries 0;
    valid_a = Array.make entries false;
    lru_a = Array.make entries 0;
    tick = 0;
    m_hits = Amulet_obs.Obs.counter metrics "uarch.tlb.hits";
    m_misses = Amulet_obs.Obs.counter metrics "uarch.tlb.misses";
  }

let page_of_addr addr = addr lsr page_bits

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* index of [page]'s entry, or -1 *)
let find_idx t page =
  let n = Array.length t.valid_a in
  let rec go i =
    if i >= n then -1
    else if t.valid_a.(i) && t.pages_a.(i) = page then i
    else go (i + 1)
  in
  go 0

let probe t page = find_idx t page >= 0

(** Translate an access to [page]: hit updates LRU, miss installs the entry
    (evicting the LRU victim).  Returns [`Hit] or [`Miss]. *)
let access t page =
  let i = find_idx t page in
  if i >= 0 then begin
    t.lru_a.(i) <- next_tick t;
    Amulet_obs.Obs.incr t.m_hits;
    `Hit
  end
  else begin
    let n = Array.length t.valid_a in
    let free =
      let rec go i = if i >= n then -1 else if not t.valid_a.(i) then i else go (i + 1) in
      go 0
    in
    let target =
      if free >= 0 then free
      else begin
        let victim = ref 0 in
        for i = 1 to n - 1 do
          if t.lru_a.(i) < t.lru_a.(!victim) then victim := i
        done;
        !victim
      end
    in
    t.pages_a.(target) <- page;
    t.valid_a.(target) <- true;
    t.lru_a.(target) <- next_tick t;
    Amulet_obs.Obs.incr t.m_misses;
    `Miss
  end

(** All cached page numbers, sorted. *)
let pages t =
  let acc = ref [] in
  for i = Array.length t.valid_a - 1 downto 0 do
    if t.valid_a.(i) then acc := t.pages_a.(i) :: !acc
  done;
  List.sort compare !acc

(* Dead entries are zeroed too, not just invalidated: {!snapshot} copies
   whole arrays, so stale page numbers and LRU stamps left behind would make
   two TLBs in the same state snapshot unequal. *)
let reset t =
  let n = Array.length t.valid_a in
  Array.fill t.valid_a 0 n false;
  Array.fill t.pages_a 0 n 0;
  Array.fill t.lru_a 0 n 0;
  t.tick <- 0

type snapshot = {
  snap_pages : int array;
  snap_valid : bool array;
  snap_lru : int array;
  snap_tick : int;
}

let snapshot t : snapshot =
  {
    snap_pages = Array.copy t.pages_a;
    snap_valid = Array.copy t.valid_a;
    snap_lru = Array.copy t.lru_a;
    snap_tick = t.tick;
  }

let restore t (s : snapshot) =
  Array.blit s.snap_pages 0 t.pages_a 0 (Array.length s.snap_pages);
  Array.blit s.snap_valid 0 t.valid_a 0 (Array.length s.snap_valid);
  Array.blit s.snap_lru 0 t.lru_a 0 (Array.length s.snap_lru);
  t.tick <- s.snap_tick

let pp fmt t =
  Format.fprintf fmt "TLB: [%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ")
       (fun f p -> Format.fprintf f "0x%x" (p lsl page_bits)))
    (pages t)
