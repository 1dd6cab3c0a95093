(* Seeded operation-level software fault injector.

   The media-fault model (Fault) makes the *hardware* fail; this makes the
   *software* resource paths fail mid-transaction: block allocation
   (ENOSPC), inode allocation (out of inodes), journal slot allocation
   (journal full). Each injection site polls the injector at the moment the
   resource would be granted, and an injected fault makes the site behave
   exactly as genuine exhaustion would — the allocator returns [None], the
   journal raises [Journal_full] — so the very same abort/rollback paths
   run as under a real full device.

   Like Fault, all randomness comes from one splitmix64 stream seeded at
   creation, and draws happen in site-visit order, so a fixed seed and
   workload inject bit-identically. [force] arms a deterministic one-shot
   for targeted tests: fail the k-th next opportunity of a kind. *)

module Rng = Hinfs_sim.Rng

type kind = Block_alloc | Inode_alloc | Journal_slot

let kinds = [ Block_alloc; Inode_alloc; Journal_slot ]

let kind_name = function
  | Block_alloc -> "block-alloc"
  | Inode_alloc -> "inode-alloc"
  | Journal_slot -> "journal-slot"

let kind_index = function
  | Block_alloc -> 0
  | Inode_alloc -> 1
  | Journal_slot -> 2

type t = {
  seed : int64;
  rng : Rng.t;
  rates : float array; (* per-kind injection probability *)
  forced : int option array; (* per-kind one-shot countdown *)
  opportunities : int array;
  injected : int array;
}

let create ?(block_alloc_rate = 0.0) ?(inode_alloc_rate = 0.0)
    ?(journal_slot_rate = 0.0) ~seed () =
  let check_rate name r =
    if r < 0.0 || r > 1.0 then
      Fmt.invalid_arg "Faultops.create: %s outside [0, 1]" name
  in
  check_rate "block_alloc_rate" block_alloc_rate;
  check_rate "inode_alloc_rate" inode_alloc_rate;
  check_rate "journal_slot_rate" journal_slot_rate;
  {
    seed;
    rng = Rng.create ~seed;
    rates = [| block_alloc_rate; inode_alloc_rate; journal_slot_rate |];
    forced = [| None; None; None |];
    opportunities = [| 0; 0; 0 |];
    injected = [| 0; 0; 0 |];
  }

let force t kind ~after =
  if after < 0 then invalid_arg "Faultops.force: negative countdown";
  t.forced.(kind_index kind) <- Some after

let disarm t kind = t.forced.(kind_index kind) <- None

(* One opportunity of [kind] is about to be granted; [true] = fail it.
   A forced one-shot takes priority over (and does not consume) a random
   draw, so targeted tests stay deterministic even with rates armed. *)
let check t kind =
  let i = kind_index kind in
  t.opportunities.(i) <- t.opportunities.(i) + 1;
  let hit =
    match t.forced.(i) with
    | Some 0 ->
      t.forced.(i) <- None;
      true
    | Some n ->
      t.forced.(i) <- Some (n - 1);
      false
    | None -> t.rates.(i) > 0.0 && Rng.chance t.rng t.rates.(i)
  in
  if hit then t.injected.(i) <- t.injected.(i) + 1;
  hit

let opportunities t kind = t.opportunities.(kind_index kind)
let injected t kind = t.injected.(kind_index kind)
