(* File systems under test (paper Table 3, plus HiNFS's own ablations). *)

module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Vfs = Hinfs_vfs.Vfs
module Hconfig = Hinfs.Hconfig
module Resource = Hinfs_sim.Resource
module Log = Hinfs_journal.Cacheline_log

type fs_kind =
  | Hinfs_fs (* the contribution *)
  | Hinfs_nclfw (* ablation: no Cacheline Level Fetch/Writeback (Fig 9) *)
  | Hinfs_wb (* ablation: checker off, buffer everything (Fig 12/13) *)
  | Pmfs_fs
  | Cow_fs (* the PMFS substrate in CoW mode: shadow paging + root swap *)
  | Ext4_dax
  | Ext2_nvmmbd
  | Ext4_nvmmbd
  | Ext4_sync (* ext4, sync mount: every write durable on return *)
  | Ext2_nvlog (* ext2 sync-mount behind the logging nvcache tier *)
  | Ext4_nvlog (* ext4 sync-mount behind the logging nvcache tier *)
  | Ext4_nvpage (* ext4 sync-mount behind the paging nvcache tier *)

let name = function
  | Hinfs_fs -> "hinfs"
  | Hinfs_nclfw -> "hinfs-nclfw"
  | Hinfs_wb -> "hinfs-wb"
  | Pmfs_fs -> "pmfs"
  | Cow_fs -> "cowfs"
  | Ext4_dax -> "ext4-dax"
  | Ext2_nvmmbd -> "ext2+nvmmbd"
  | Ext4_nvmmbd -> "ext4+nvmmbd"
  | Ext4_sync -> "ext4-sync"
  | Ext2_nvlog -> "ext2+nvlog"
  | Ext4_nvlog -> "ext4+nvlog"
  | Ext4_nvpage -> "ext4+nvpage"

(* The five systems of the paper's main comparison, in Fig. 7 order. *)
let paper_five = [ Pmfs_fs; Ext4_dax; Ext2_nvmmbd; Ext4_nvmmbd; Hinfs_fs ]

let description = function
  | Hinfs_fs -> "NVMM-aware write buffer + direct reads/eager writes"
  | Hinfs_nclfw -> "HiNFS without cacheline-level fetch/writeback"
  | Hinfs_wb -> "HiNFS buffering every write (checker disabled)"
  | Pmfs_fs -> "direct access to NVMM (EuroSys'14)"
  | Cow_fs -> "CoW shadow paging + fenced root swap (snapshots/txns)"
  | Ext4_dax -> "ext4 with the DAX direct-access patch"
  | Ext2_nvmmbd -> "ext2 on the NVMM block device (no journal)"
  | Ext4_nvmmbd -> "ext4 on the NVMM block device (ordered journal)"
  | Ext4_sync -> "ext4+nvmmbd, sync mount (durable-write baseline)"
  | Ext2_nvlog -> "ext2 sync mount behind the logging nvcache tier"
  | Ext4_nvlog -> "ext4 sync mount behind the logging nvcache tier"
  | Ext4_nvpage -> "ext4 sync mount behind the paging nvcache tier"

type env = {
  engine : Engine.t;
  stats : Stats.t;
  device : Device.t;
  handle : Vfs.handle;
  kind : fs_kind;
  gauges : (string * (unit -> int)) list;
  teardown : unit -> unit;
}

(* Gauges every kind exposes: bandwidth-slot utilisation/queueing and the
   volatile-cacheline footprint, read straight off the device. *)
let device_gauges device =
  let bw = Device.bandwidth device in
  [
    ("bw.slots_in_use", fun () -> Resource.capacity bw - Resource.available bw);
    ("bw.queued", fun () -> Resource.queued bw);
    ("dev.dirty_cachelines", fun () -> Device.dirty_cachelines device);
  ]

let journal_gauges log =
  [ ("journal.free_slots", fun () -> Log.free_slots log) ]

(* Mount a fresh file system of the given kind on a fresh device. Must run
   inside a simulation process (daemons are spawned). *)
let setup engine ~config ~buffer_bytes ~cache_pages ?(shards = 1) kind =
  let stats = Stats.create () in
  let device = Device.create engine stats config in
  let hinfs_with hcfg =
    let fs = Hinfs.Fs.mkfs_and_mount device ~shards ~hcfg ~daemons:true () in
    let pmfs = Hinfs.Fs.pmfs fs in
    let nshards = Hinfs.Fs.shard_count fs in
    (* Per-shard gauges only when actually sharded: shard pool occupancy,
       shard journal headroom, and the epoch-record commit counter. *)
    let shard_gauges =
      if nshards <= 1 then []
      else
        List.concat
          (List.init nshards (fun s ->
               let ctx = Hinfs_pmfs.Pmfs.ctx pmfs in
               let log = (Hinfs_pmfs.Fs_ctx.shard ctx s).Hinfs_pmfs.Fs_ctx.log in
               [
                 ( Fmt.str "shard%d.pool_used" s,
                   fun () ->
                     Hinfs.Buffer_pool.used_count (Hinfs.Fs.shard_pool fs s) );
                 (Fmt.str "shard%d.journal_free_slots" s, fun () ->
                     Log.free_slots log);
                 (* 0 healthy, 1 degraded *)
                 ( Fmt.str "shard%d.health" s,
                   fun () ->
                     if Hinfs_pmfs.Pmfs.domain_fault pmfs s = None then 0
                     else 1 );
               ]))
        @ [
            ( "epoch.commits",
              fun () ->
                Hinfs_journal.Epoch.commits (Hinfs_pmfs.Pmfs.epoch pmfs) );
          ]
    in
    let gauges =
      [
        ("buffer.used_blocks", fun () -> Hinfs.Fs.buffered_blocks fs);
        ("buffer.free_blocks", fun () -> Hinfs.Fs.free_buffer_blocks fs);
        ("buffer.dirty_blocks", fun () -> Hinfs.Fs.dirty_buffered_blocks fs);
        ("txns.pending", fun () -> Hinfs.Fs.pending_txns fs);
      ]
      @ journal_gauges (Hinfs_pmfs.Pmfs.log pmfs)
      @ shard_gauges
    in
    (Hinfs.Fs.handle fs, gauges, fun () -> Hinfs.Fs.unmount fs)
  in
  let ext_with ?sync_mount mode =
    let fs =
      Hinfs_extfs.Extfs.mkfs_and_mount device ~mode ?sync_mount ~cache_pages
        ~daemons:true ()
    in
    (Hinfs_extfs.Extfs.handle fs, [], fun () -> Hinfs_extfs.Extfs.unmount fs)
  in
  (* Durability tier: extfs sync-mounted (every write synchronous, like the
     bare Ext4_sync baseline) so the tier's absorb latency is what the
     workload's write path measures. *)
  let nvcache_with design mode =
    let module Nvcache = Hinfs_nvcache.Nvcache in
    let st =
      Nvcache.mkfs_and_mount device ~design ~mode ~sync_mount:true
        ~cache_pages ~daemons:true ()
    in
    let cache = Nvcache.cache st in
    let gauges =
      [
        ("nvcache.log_bytes", fun () -> Nvcache.used_bytes cache);
        ("nvcache.backlog", fun () -> Nvcache.backlog cache);
      ]
    in
    (Nvcache.handle st, gauges, fun () -> Nvcache.unmount st)
  in
  let handle, fs_gauges, teardown =
    match kind with
    | Hinfs_fs -> hinfs_with { Hconfig.default with Hconfig.buffer_bytes }
    | Hinfs_nclfw ->
      hinfs_with
        { Hconfig.default with Hconfig.buffer_bytes; Hconfig.clfw = false }
    | Hinfs_wb ->
      hinfs_with
        { Hconfig.default with Hconfig.buffer_bytes; Hconfig.checker = false }
    | Pmfs_fs ->
      let fs = Hinfs_pmfs.Pmfs.mkfs_and_mount device ~journal_cleaner:true () in
      ( Hinfs_pmfs.Pmfs.handle fs,
        journal_gauges (Hinfs_pmfs.Pmfs.log fs),
        fun () -> Hinfs_pmfs.Pmfs.unmount fs )
    | Cow_fs ->
      let module Cowfs = Hinfs_pmfs.Cowfs in
      let fs = Cowfs.mkfs_and_mount device () in
      ( Cowfs.handle fs,
        [
          ("cow.shadow_blocks", fun () -> Cowfs.shadow_count fs);
          ("cow.commits", fun () -> Cowfs.commits fs);
        ],
        fun () -> Cowfs.unmount fs )
    | Ext4_dax -> ext_with Hinfs_extfs.Extfs.Ext4_dax
    | Ext2_nvmmbd -> ext_with Hinfs_extfs.Extfs.Ext2
    | Ext4_nvmmbd -> ext_with Hinfs_extfs.Extfs.Ext4
    | Ext4_sync -> ext_with ~sync_mount:true Hinfs_extfs.Extfs.Ext4
    | Ext2_nvlog ->
      nvcache_with Hinfs_nvcache.Nvcache.Logging Hinfs_extfs.Extfs.Ext2
    | Ext4_nvlog ->
      nvcache_with Hinfs_nvcache.Nvcache.Logging Hinfs_extfs.Extfs.Ext4
    | Ext4_nvpage ->
      nvcache_with Hinfs_nvcache.Nvcache.Paging Hinfs_extfs.Extfs.Ext4
  in
  let gauges = fs_gauges @ device_gauges device in
  { engine; stats; device; handle; kind; gauges; teardown }
