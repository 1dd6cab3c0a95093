(* JBD2-style block journal for the EXT4 baseline (ordered data mode).

   A running transaction accumulates the numbers of dirty metadata blocks.
   Commit, as in ordered mode jbd2:
   1. flushes the ordered data (callbacks registered by the file system) so
      data reaches its home location before the metadata that points at it;
   2. writes a descriptor block, the metadata block images, and a commit
      block into the journal region (through the block layer, as jbd2 does);
   3. checkpoints immediately: writes the metadata blocks to their home
      locations and resets the journal region for the next transaction.

   Recovery replays the journal if a committed transaction is found whose
   checkpoint may not have completed. *)

module Stats = Hinfs_stats.Stats
module Resource = Hinfs_sim.Resource
module Crc32c = Hinfs_structures.Crc32c
module Obs = Hinfs_obs.Obs

let descriptor_magic = 0x4A424432 (* "JBD2" *)
let commit_magic = 0x434F4D54 (* "COMT" *)

(* Descriptor and commit blocks carry a CRC-32C over the preceding bytes in
   their last four bytes (jbd2's j_chksum): recovery only trusts records
   whose checksum matches, so a torn descriptor or commit write is
   discarded instead of replayed. *)
let seal_block b =
  let n = Bytes.length b - 4 in
  Bytes.set_int32_le b n (Int32.of_int (Crc32c.digest b ~off:0 ~len:n))

let block_crc_ok b =
  let n = Bytes.length b - 4 in
  Int32.to_int (Bytes.get_int32_le b n) land 0xFFFFFFFF
  = Crc32c.digest b ~off:0 ~len:n

type t = {
  bdev : Hinfs_blockdev.Blockdev.t;
  first_block : int;
  blocks : int;
  block_size : int;
  lock : Resource.t; (* serialises commits *)
  mutable txn_id : int;
  mutable running : (int, unit -> Bytes.t) Hashtbl.t;
      (* home block -> current content provider *)
  mutable ordered_data : (unit -> unit) list;
  mutable commits : int;
}

let cat = Stats.Journal

let create bdev ~first_block ~blocks =
  let block_size = Hinfs_blockdev.Blockdev.block_size bdev in
  if blocks < 3 then invalid_arg "Block_journal.create: region too small";
  {
    bdev;
    first_block;
    blocks;
    block_size;
    lock = Resource.create ~name:"jbd-commit" ~capacity:1;
    txn_id = 1;
    running = Hashtbl.create 16;
    ordered_data = [];
    commits = 0;
  }

let commits t = t.commits

(* Register a dirty metadata block in the running transaction. The content
   provider is called at commit time so the freshest image is journaled. *)
let journal_metadata t ~block ~content =
  Hashtbl.replace t.running block content

(* Register a data-flush obligation that must complete before the next
   commit (ordered mode invariant). *)
let add_ordered_data t flush = t.ordered_data <- flush :: t.ordered_data

(* The block was freed: journaling (and later checkpointing) its old image
   would clobber whoever reallocates it — drop it from the running
   transaction (jbd2's "forget"). *)
let forget t ~block = Hashtbl.remove t.running block

let max_blocks_per_txn t = t.blocks - 2 (* descriptor + commit *)

(* Commit a batch that fits in the journal region. *)
let commit_batch t entries =
  if entries <> [] then begin
    let id = t.txn_id in
    t.txn_id <- id + 1;
    (* 2. Descriptor block. *)
    let descriptor = Bytes.make t.block_size '\000' in
    Bytes.set_int32_le descriptor 0 (Int32.of_int descriptor_magic);
    Bytes.set_int32_le descriptor 4 (Int32.of_int id);
    Bytes.set_int32_le descriptor 8 (Int32.of_int (List.length entries));
    List.iteri
      (fun i (block, _) ->
        Bytes.set_int32_le descriptor (12 + (4 * i)) (Int32.of_int block))
      entries;
    seal_block descriptor;
    Hinfs_blockdev.Blockdev.write_block t.bdev ~cat t.first_block
      ~src:descriptor ~off:0;
    (* Journal copies of the metadata blocks. *)
    let images =
      List.mapi
        (fun i (block, content) ->
          let image = content () in
          if Bytes.length image <> t.block_size then
            invalid_arg "Block_journal: bad metadata block image size";
          Hinfs_blockdev.Blockdev.write_block t.bdev ~cat
            (t.first_block + 1 + i)
            ~src:image ~off:0;
          (block, image))
        entries
    in
    (* Commit block makes the transaction durable. *)
    let commit_block = Bytes.make t.block_size '\000' in
    Bytes.set_int32_le commit_block 0 (Int32.of_int commit_magic);
    Bytes.set_int32_le commit_block 4 (Int32.of_int id);
    seal_block commit_block;
    Hinfs_blockdev.Blockdev.write_block t.bdev ~cat
      (t.first_block + 1 + List.length entries)
      ~src:commit_block ~off:0;
    (* 3. Checkpoint: write metadata home, then retire the journal txn by
       zeroing the descriptor so recovery will not replay it again. *)
    List.iter
      (fun (block, image) ->
        Hinfs_blockdev.Blockdev.write_block t.bdev ~cat block ~src:image
          ~off:0)
      images;
    let zero = Bytes.make t.block_size '\000' in
    Hinfs_blockdev.Blockdev.write_block t.bdev ~cat t.first_block ~src:zero
      ~off:0;
    t.commits <- t.commits + 1
  end

(* Commit the running transaction. Transactions larger than the journal
   region are split into multiple batches, as jbd2 does. If the commit
   fails partway (a media error surfacing from an ordered-data flush or a
   journal write), the not-yet-committed entries are put back into the
   running transaction instead of being dropped — losing them would
   silently skip their metadata on the next commit. *)
let rec commit t =
  Obs.span_begin Obs.Journal_commit;
  match commit_locked t with
  | () -> Obs.span_end Obs.Journal_commit
  | exception e ->
    Obs.span_end Obs.Journal_commit;
    raise e

and commit_locked t =
  Resource.with_resource t.lock 1 @@ fun () ->
  let entries =
    Hashtbl.fold (fun block content acc -> (block, content) :: acc) t.running []
  in
  let ordered = t.ordered_data in
  t.running <- Hashtbl.create 16;
  t.ordered_data <- [];
  (* Deterministic journal image regardless of hash order. *)
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let pending = ref entries in
  try
    (* 1. Ordered data first. *)
    List.iter (fun flush -> flush ()) (List.rev ordered);
    let max_batch = max_blocks_per_txn t in
    let rec batches = function
      | [] -> ()
      | remaining ->
        let rec take n acc rest =
          match rest with
          | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
          | _ -> (List.rev acc, rest)
        in
        let batch, rest = take max_batch [] remaining in
        commit_batch t batch;
        pending := rest;
        batches rest
    in
    batches entries
  with e ->
    (* Re-register what has not been durably committed (batches already
       checkpointed are safe to drop). A newer provider registered since is
       kept — it supersedes this image. *)
    List.iter
      (fun (block, content) ->
        if not (Hashtbl.mem t.running block) then
          Hashtbl.replace t.running block content)
      !pending;
    raise e

(* Mount-time recovery: if the journal holds a committed transaction whose
   checkpoint did not finish, replay it. Untimed. Returns true if a replay
   happened. *)
let recover bdev ~first_block ~blocks =
  let block_size = Hinfs_blockdev.Blockdev.block_size bdev in
  let stats =
    Hinfs_nvmm.Device.stats (Hinfs_blockdev.Blockdev.device bdev)
  in
  let descriptor = Hinfs_blockdev.Blockdev.peek_block bdev first_block in
  let magic = Int32.to_int (Bytes.get_int32_le descriptor 0) in
  if magic <> descriptor_magic then false
  else if not (block_crc_ok descriptor) then begin
    (* Torn descriptor write: the transaction never committed coherently. *)
    Stats.add_crc_mismatch stats;
    let zero = Bytes.make block_size '\000' in
    Hinfs_blockdev.Blockdev.poke_block bdev first_block ~src:zero ~off:0;
    false
  end
  else begin
    let id = Int32.to_int (Bytes.get_int32_le descriptor 4) in
    let count = Int32.to_int (Bytes.get_int32_le descriptor 8) in
    if count < 0 || count > blocks - 2 then false
    else begin
      let commit_block =
        Hinfs_blockdev.Blockdev.peek_block bdev (first_block + 1 + count)
      in
      let cmagic = Int32.to_int (Bytes.get_int32_le commit_block 0) in
      let cid = Int32.to_int (Bytes.get_int32_le commit_block 4) in
      let commit_ok =
        cmagic = commit_magic && cid = id
        &&
        (let ok = block_crc_ok commit_block in
         if not ok then Stats.add_crc_mismatch stats;
         ok)
      in
      if commit_ok then begin
        (* Replay: copy journaled images home. *)
        for i = 0 to count - 1 do
          let home =
            Int32.to_int (Bytes.get_int32_le descriptor (12 + (4 * i)))
          in
          let image =
            Hinfs_blockdev.Blockdev.peek_block bdev (first_block + 1 + i)
          in
          Hinfs_blockdev.Blockdev.poke_block bdev home ~src:image ~off:0
        done;
        let zero = Bytes.make block_size '\000' in
        Hinfs_blockdev.Blockdev.poke_block bdev first_block ~src:zero ~off:0;
        true
      end
      else begin
        (* Uncommitted transaction: discard. *)
        let zero = Bytes.make block_size '\000' in
        Hinfs_blockdev.Blockdev.poke_block bdev first_block ~src:zero ~off:0;
        false
      end
    end
  end
