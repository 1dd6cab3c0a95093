(* Invariant checkers for the on-NVMM PMFS layout (which is also the
   persistent layout under HiNFS).

   Run against a freshly mounted file system — typically one mounted from a
   crash image after log recovery — and return a list of human-readable
   violations; an empty list means the image is consistent. The checks
   mirror a classical fsck pass:

   - journal sanity: no valid undo entries survive recovery;
   - inode sanity: kinds, sizes, link counts, block counts;
   - block accounting: every reachable data/index block is inside the data
     region and claimed by exactly one inode; the rebuilt allocator agrees
     with the reachable set;
   - directory well-formedness: dirent names in range, targets live and
     in-range, dirent references consistent with link counts.

   All inspection is untimed (peeks), so this can run outside any measured
   simulation window. *)

module Device = Hinfs_nvmm.Device
module Allocator = Hinfs_nvmm.Allocator
module Log = Hinfs_journal.Cacheline_log
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Media = Hinfs_pmfs.Media
module Fs_ctx = Hinfs_pmfs.Fs_ctx
module Block_tree = Hinfs_pmfs.Block_tree

(* Per-shard breakdown (Layout v3 partitions the journal region and the
   allocator ranges; one entry per shard, in shard order). *)
type shard_report = {
  journal_entries : int;
      (* valid journal entries left in this shard's journal sub-region —
         zero after recovery / clean unmount *)
  shard_leaked_blocks : int; (* leaked blocks in this shard's data range *)
  shard_leaked_inodes : int; (* leaked inodes in this shard's inode range *)
}

type report = {
  inodes_checked : int;
  blocks_claimed : int;
  leaked_blocks : int;
      (* blocks the live allocator holds as used beyond the reachable set:
         an aborted operation failed to return an allocation *)
  leaked_inodes : int;
      (* inode slots the live allocator holds beyond the in-use set *)
  poisoned_data_lines : int;
  shard_reports : shard_report array;
  violations : string list;
}

let ok report = report.violations = []

let pp_shards ppf r =
  if Array.length r.shard_reports > 1 then
    Array.iteri
      (fun s sr ->
        Fmt.pf ppf "@,  shard %d: %d journal entr(ies), %d leaked block(s), \
                    %d leaked inode(s)"
          s sr.journal_entries sr.shard_leaked_blocks sr.shard_leaked_inodes)
      r.shard_reports

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "@[<v>fsck clean: %d inodes, %d blocks%a%a@]" r.inodes_checked
      r.blocks_claimed
      (fun ppf n ->
        if n > 0 then Fmt.pf ppf " (%d poisoned data line(s) pending EIO)" n)
      r.poisoned_data_lines pp_shards r
  else
    Fmt.pf ppf "@[<v>fsck: %d violation(s) (%d inodes, %d blocks):@,%a%a@]"
      (List.length r.violations)
      r.inodes_checked r.blocks_claimed
      Fmt.(list ~sep:cut (fun ppf v -> Fmt.pf ppf "  - %s" v))
      r.violations pp_shards r

(* --- The namespace pass both checkers share ---

   Walks each directory's dirents through the codec's validating decoder
   and collects dirent references and subdirectory counts, flagging
   malformed dirents and invalid or dangling targets; then holds link
   counts to those references. Each substrate supplies its own step from
   an inode number to the address of an in-use inode, the view dirents are
   read through, and its directory link-count rule. *)

type namespace = {
  device : Device.t;
  persistent : bool; (* dirents read in the persistent view *)
  inode_count : int;
  live : int -> int option; (* address of an in-use inode *)
  add : string -> unit;
  refs : (int, int) Hashtbl.t; (* target ino -> dirent references *)
  subdirs : (int, int) Hashtbl.t; (* dir ino -> subdirectory entries *)
}

let namespace ~device ~persistent ~inode_count ~live ~add =
  {
    device;
    persistent;
    inode_count;
    live;
    add;
    refs = Hashtbl.create 256;
    subdirs = Hashtbl.create 64;
  }

let count tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)
let bump tbl key = Hashtbl.replace tbl key (count tbl key + 1)
let is_dir ns ia = Media.Inode.kind ns.device ia = Media.Inode.kind_directory

let check_root ns ~root =
  match ns.live root with
  | None -> ns.add "root inode not in use"
  | Some ia -> if not (is_dir ns ia) then ns.add "root inode is not a directory"

(* One in-use inode: its kind, and for a directory its size and dirents. *)
let check_inode ns ~ino ~ia =
  let device = ns.device in
  let kind = Media.Inode.kind device ia in
  if kind <> Media.Inode.kind_regular && kind <> Media.Inode.kind_directory
  then ns.add (Fmt.str "inode %d: invalid kind %d" ino kind);
  if kind = Media.Inode.kind_directory then begin
    let size = Media.Inode.size device ia in
    if size mod Media.block_size device <> 0 then
      ns.add
        (Fmt.str "dir %d: size %d not a multiple of the block size" ino size);
    try
      Media.Dirent.scan ~persistent:ns.persistent device ~ia
        (fun ~fblock:_ ~block ~slot entry ->
          (match entry with
          | Media.Dirent.Free -> ()
          | Bad_name_len len ->
            ns.add
              (Fmt.str "dir %d: dirent block %d slot %d has bad name length %d"
                 ino block slot len)
          | Live (name, target) ->
            if target < 1 || target > ns.inode_count then
              ns.add
                (Fmt.str "dir %d: entry %S targets invalid inode %d" ino name
                   target)
            else begin
              (match ns.live target with
              | None ->
                ns.add
                  (Fmt.str "dir %d: entry %S dangles to free inode %d" ino
                     name target)
              | Some tia -> if is_dir ns tia then bump ns.subdirs ino);
              bump ns.refs target
            end);
          true)
    with e ->
      ns.add
        (Fmt.str "dir %d: dirent walk failed: %s" ino (Printexc.to_string e))
  end

(* Link counts against dirent references, and orphans. [dir_links] is the
   substrate's own rule for a directory's link count. *)
let check_links ns ~root ~dir_links =
  for ino = 1 to ns.inode_count do
    match ns.live ino with
    | None -> ()
    | Some ia ->
      let links = Media.Inode.links ns.device ia in
      let refs = count ns.refs ino in
      if is_dir ns ia then begin
        let expect = dir_links ino in
        if links <> expect then
          ns.add
            (Fmt.str "dir %d: link count %d (expected %d)" ino links expect);
        if ino = root then begin
          if refs <> 0 then
            ns.add (Fmt.str "root referenced by %d dirent(s)" refs)
        end
        else if refs <> 1 then
          ns.add
            (Fmt.str "dir %d: referenced by %d dirent(s) (expected 1)" ino
               refs)
      end
      else begin
        if links <> refs then
          ns.add
            (Fmt.str "inode %d: link count %d but %d dirent reference(s)" ino
               links refs);
        if refs = 0 then ns.add (Fmt.str "inode %d: orphan (no dirent)" ino)
      end
  done

let check_pmfs fs =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let ctx = Pmfs.ctx fs in
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let nshards = Fs_ctx.shard_count ctx in
  (* 1. Journal sanity: recovery (or clean unmount) must leave no valid
     entries behind — anything else means a committed-but-uncheckpointed or
     half-rolled-back transaction escaped. Live transactions of the mounted
     instance would also show up here, so run this on a fresh mount. Each
     shard's journal sub-region is checked separately. *)
  let shard_journal_entries =
    Array.init nshards (fun s ->
        let first_block, blocks = Layout.journal_region geo s in
        Log.count_valid_entries device ~first_block ~blocks)
  in
  let stale = Array.fold_left ( + ) 0 shard_journal_entries in
  if stale > 0 then begin
    add (Fmt.str "journal: %d valid entr(ies) present after recovery" stale);
    if nshards > 1 then
      Array.iteri
        (fun s n ->
          if n > 0 then
            add
              (Fmt.str "journal shard %d: %d valid entr(ies) in its region" s
                 n))
        shard_journal_entries
  end;
  (* 2. Root inode. *)
  let ns =
    namespace ~device ~persistent:true
      ~inode_count:geo.Layout.inode_count ~add ~live:(fun ino ->
        if Layout.Inode.in_use device geo ino then
          Some (Layout.Inode.addr geo ino)
        else None)
  in
  check_root ns ~root:Layout.root_ino;
  (* 3. Per-inode walk: sizes, reachable blocks, kinds, dirents. *)
  let owner = Hashtbl.create 256 in (* data/index block -> (ino, use) *)
  let inodes_checked = ref 0 in
  let inuse_in = Array.make nshards 0 in
  let claim ino block use =
    if block < geo.Layout.data_start || block >= geo.Layout.data_end then
      add
        (Fmt.str "inode %d: %s block %d outside data region [%d, %d)" ino
           (match use with Block_tree.Data _ -> "data" | Index -> "index")
           block geo.Layout.data_start geo.Layout.data_end)
    else
      match Hashtbl.find_opt owner block with
      | Some (other, _) ->
        add (Fmt.str "block %d claimed by inodes %d and %d" block other ino)
      | None -> Hashtbl.replace owner block (ino, use)
  in
  for ino = 1 to geo.Layout.inode_count do
    if Layout.Inode.in_use device geo ino then begin
      incr inodes_checked;
      let s = Fs_ctx.shard_of_ino ctx ino in
      inuse_in.(s) <- inuse_in.(s) + 1;
      let size = Layout.Inode.size device geo ino in
      if size < 0 then add (Fmt.str "inode %d: negative size %d" ino size);
      (try
         let bs = geo.Layout.block_size in
         let reachable = ref 0 in
         Block_tree.iter_owned ctx ~ino (fun block use ->
             claim ino block use;
             match use with
             | Index -> ()
             | Data fblock ->
               incr reachable;
               if size >= 0 && fblock * bs >= size then
                 add
                   (Fmt.str
                      "inode %d: data block at file block %d beyond EOF \
                       (size %d)"
                      ino fblock size));
         let recorded = Layout.Inode.blocks device geo ino in
         if recorded <> !reachable then
           add
             (Fmt.str "inode %d: blocks field %d but %d reachable data blocks"
                ino recorded !reachable)
       with e ->
         add
           (Fmt.str "inode %d: block tree walk failed: %s" ino
              (Printexc.to_string e)));
      check_inode ns ~ino ~ia:(Layout.Inode.addr geo ino)
    end
  done;
  (* 4. Link counts vs. dirent references; orphan detection. PMFS keeps a
     directory's link count at 2 whatever its subdirectories. *)
  check_links ns ~root:Layout.root_ino ~dir_links:(fun _ -> 2);
  (* 5. Allocator cross-check: the bitmaps must cover exactly the
     reachable set. On a fresh mount the allocators are rebuilt from the
     live trees, so this is vacuous; on a *live* mount after failed
     operations it is the leak detector — every block or inode an aborted
     operation failed to return shows up as used-but-unreachable. The
     allocators are range-partitioned by shard, so the accounting runs per
     range: a leak is attributed to the shard whose range owns the number,
     regardless of which shard's operation leaked it. *)
  let claimed = Hashtbl.length owner in
  let claimed_in = Array.make nshards 0 in
  Hashtbl.iter
    (fun block _ ->
      let s = Fs_ctx.shard_of_block ctx block in
      claimed_in.(s) <- claimed_in.(s) + 1)
    owner;
  let leaked_blocks = ref 0 and leaked_inodes = ref 0 in
  let shard_leaks =
    Array.init nshards (fun s ->
        let sh = Fs_ctx.shard ctx s in
        let used_b = Allocator.used_blocks sh.Fs_ctx.balloc in
        let used_i = Allocator.used_blocks sh.Fs_ctx.ialloc in
        let lb = max 0 (used_b - claimed_in.(s)) in
        let li = max 0 (used_i - inuse_in.(s)) in
        leaked_blocks := !leaked_blocks + lb;
        leaked_inodes := !leaked_inodes + li;
        if used_b <> claimed_in.(s) then begin
          let first, count = Layout.data_range geo s in
          add
            (Fmt.str
               "block allocator shard %d [%d, %d): %d blocks marked used, %d \
                reachable"
               s first (first + count) used_b claimed_in.(s))
        end;
        if used_i <> inuse_in.(s) then begin
          let first, count = Layout.inode_range geo s in
          add
            (Fmt.str
               "inode allocator shard %d [%d, %d): %d inodes marked used, %d \
                in use"
               s first (first + count) used_i inuse_in.(s))
        end;
        (lb, li))
  in
  Hashtbl.iter
    (fun block _ ->
      let sh = Fs_ctx.shard ctx (Fs_ctx.shard_of_block ctx block) in
      if
        Allocator.contains sh.Fs_ctx.balloc block
        && not (Allocator.is_allocated sh.Fs_ctx.balloc block)
      then
        add (Fmt.str "block allocator: reachable block %d marked free" block))
    owner;
  let shard_reports =
    Array.init nshards (fun s ->
        let lb, li = shard_leaks.(s) in
        {
          journal_entries = shard_journal_entries.(s);
          shard_leaked_blocks = lb;
          shard_leaked_inodes = li;
        })
  in
  (* 6. Media: poison on metadata (superblock copies, journal, epoch
     record, in-use inode slots, index blocks) is a violation — the tree
     cannot be trusted. Poison on reachable data is only counted: those
     lines raise EIO on read but the structure stays consistent, so a
     post-scrub fsck can still pass. Poison on free lines heals on the next
     write. *)
  let poisoned_data = ref 0 in
  List.iter
    (fun addr ->
      match Layout.region_of_addr geo addr with
      | Superblock ->
        add (Fmt.str "media: superblock copy poisoned at %#x" addr)
      | Journal s ->
        add (Fmt.str "media: journal line (shard %d) poisoned at %#x" s addr)
      | Epoch_record ->
        add (Fmt.str "media: epoch record block poisoned at %#x" addr)
      | Inode_slot ino ->
        if Layout.Inode.in_use device geo ino then
          add (Fmt.str "media: in-use inode %d poisoned at %#x" ino addr)
      | Data_block block -> (
        match Hashtbl.find_opt owner block with
        | Some (ino, Block_tree.Index) ->
          add
            (Fmt.str "media: index block %d of inode %d poisoned at %#x" block
               ino addr)
        | Some (_, Data _) -> incr poisoned_data
        | None -> ()))
    (Device.verify_range device ~addr:0
       ~len:(geo.Layout.total_blocks * geo.Layout.block_size));
  {
    inodes_checked = !inodes_checked;
    blocks_claimed = claimed;
    leaked_blocks = !leaked_blocks;
    leaked_inodes = !leaked_inodes;
    poisoned_data_lines = !poisoned_data;
    shard_reports;
    violations = List.rev !violations;
  }

(* Violations only (convenience for callers composing with other oracles). *)
let check fs = (check_pmfs fs).violations

(* --- CoW mode ---

   The cowfs invariants are refcount-shaped rather than ownership-shaped:
   a block may legitimately be reachable from several roots (the working
   tree plus any number of snapshots pinning it), but the persistent
   refcount must equal the number of roots that reach it — exactly. A
   block reachable from two live roots whose refcount says 1 would be
   freed while still referenced; a refcount above the reach count is a
   committed-block leak. Within any single root every block must be
   reached exactly once (trees, not DAGs).

   The refcount comparison is only meaningful on a quiesced instance
   (no open CoW window): the fixpoint that reconciles the persistent
   table runs at commit. *)

module Cowfs = Hinfs_pmfs.Cowfs

let check_cow fs =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let device = Cowfs.device fs in
  let total = Cowfs.total_blocks fs in
  let bs = Cowfs.block_size fs in
  let reach = Array.make total 0 in
  let kind_of = Hashtbl.create 256 in
  let claim_root root_name imap extra =
    let visited = Hashtbl.create 256 in
    let claim block kind =
      if block <= 0 || block >= total then
        add
          (Fmt.str "%s: %s block %d outside pool [1, %d)" root_name kind block
             total)
      else begin
        if Hashtbl.mem visited block then
          add
            (Fmt.str "%s: block %d reached twice within one root" root_name
               block);
        Hashtbl.replace visited block ();
        reach.(block) <- reach.(block) + 1;
        if not (Hashtbl.mem kind_of block) then
          Hashtbl.replace kind_of block kind
      end
    in
    Cowfs.iter_tree_at fs ~imap (fun ~block ~kind ->
        claim block
          (match kind with
          | `Imap -> "imap"
          | `Ipage -> "ipage"
          | `Index -> "index"
          | `Data -> "data"));
    List.iter (fun b -> claim b "meta") extra
  in
  claim_root "working root" (Cowfs.imap_root fs) (Cowfs.meta_blocks fs);
  List.iter
    (fun (id, imap) -> claim_root (Fmt.str "snapshot %d" id) imap [])
    (Cowfs.snapshot_roots fs);
  let reachable = Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 reach in
  (* Persistent refcounts vs. root reachability. *)
  let quiesced = Cowfs.shadow_count fs = 0 in
  let leaked_blocks = ref 0 in
  if quiesced then
    for b = 1 to total - 1 do
      let stored = Cowfs.refcount fs b in
      if stored <> reach.(b) then
        if stored > 0 && reach.(b) = 0 then begin
          incr leaked_blocks;
          add
            (Fmt.str "block %d: committed leak (refcount %d, unreachable)" b
               stored)
        end
        else
          add
            (Fmt.str
               "block %d: refcount %d but reachable from %d live root(s)" b
               stored reach.(b))
    done
  else add "cow fsck on un-quiesced instance (open CoW window)";
  (* Allocator cross-check (live-mount leak detector). *)
  let used = Cowfs.used_blocks fs in
  let expected = reachable + Cowfs.shadow_count fs in
  if quiesced && used <> expected then
    add
      (Fmt.str "block allocator: %d blocks marked used, %d reachable" used
         expected);
  (* Working-tree namespace: root inode, dirent targets, link counts
     (dir links = 2 + subdirs; file links = dirent references). *)
  let imap = Cowfs.imap_root fs in
  let ns =
    namespace ~device ~persistent:false ~inode_count:(Cowfs.inode_count fs)
      ~add ~live:(Cowfs.live_inode_at fs ~imap)
  in
  let inodes_checked = ref 0 in
  check_root ns ~root:Cowfs.root_ino;
  for ino = 1 to ns.inode_count do
    match ns.live ino with
    | None -> ()
    | Some ia ->
      incr inodes_checked;
      check_inode ns ~ino ~ia
  done;
  check_links ns ~root:Cowfs.root_ino ~dir_links:(fun ino ->
      2 + count ns.subdirs ino);
  let leaked_inodes =
    if quiesced then
      max 0 (Allocator.used_blocks (Cowfs.ialloc fs) - !inodes_checked)
    else 0
  in
  if leaked_inodes > 0 then
    add
      (Fmt.str "inode allocator: %d inodes marked used, %d in use"
         (Allocator.used_blocks (Cowfs.ialloc fs))
         !inodes_checked);
  (* Media poison: the root-descriptor region and any reachable metadata
     block are trust-critical; reachable data poison is only counted. *)
  let poisoned_data = ref 0 in
  (match Device.fault_model device with
  | None -> ()
  | Some _ ->
    List.iter
      (fun addr ->
        let block = addr / bs in
        if block = 0 then
          add (Fmt.str "media: root descriptor region poisoned at %#x" addr)
        else
          match Hashtbl.find_opt kind_of block with
          | Some "data" -> incr poisoned_data
          | Some kind ->
            add
              (Fmt.str "media: reachable %s block %d poisoned at %#x" kind
                 block addr)
          | None -> ())
      (Device.verify_range device ~addr:0 ~len:(total * bs)));
  {
    inodes_checked = !inodes_checked;
    blocks_claimed = reachable;
    leaked_blocks = !leaked_blocks;
    leaked_inodes;
    poisoned_data_lines = !poisoned_data;
    shard_reports = [||]; (* cowfs hot state is not sharded *)
    violations = List.rev !violations;
  }

let cow_violations fs = (check_cow fs).violations
