(** File systems under test (paper Table 3, plus HiNFS's ablations). *)

type fs_kind =
  | Hinfs_fs  (** the contribution *)
  | Hinfs_nclfw  (** no Cacheline Level Fetch/Writeback (Fig. 9) *)
  | Hinfs_wb  (** checker off: buffer everything (Fig. 12/13) *)
  | Pmfs_fs
  | Cow_fs
      (** the PMFS substrate in CoW mode: shadow paging, snapshots, whole-FS
          transactions, fenced root-descriptor swap per commit *)
  | Ext4_dax
  | Ext2_nvmmbd
  | Ext4_nvmmbd
  | Ext4_sync  (** ext4+nvmmbd mounted sync: every write durable on return *)
  | Ext2_nvlog  (** ext2 sync mount behind the logging nvcache tier *)
  | Ext4_nvlog  (** ext4 sync mount behind the logging nvcache tier *)
  | Ext4_nvpage  (** ext4 sync mount behind the paging nvcache tier *)

val name : fs_kind -> string
val description : fs_kind -> string

val paper_five : fs_kind list
(** The five systems of the paper's main comparison, in Fig. 7 order. *)

type env = {
  engine : Hinfs_sim.Engine.t;
  stats : Hinfs_stats.Stats.t;
  device : Hinfs_nvmm.Device.t;
  handle : Hinfs_vfs.Vfs.handle;
  kind : fs_kind;
  gauges : (string * (unit -> int)) list;
      (** Named gauges for the {!Hinfs_obs.Obs} periodic sampler: write-buffer
          occupancy, journal free entries, bandwidth-slot utilisation,
          writeback queue depth — whatever the kind exposes. *)
  teardown : unit -> unit;
}

val setup :
  Hinfs_sim.Engine.t ->
  config:Hinfs_nvmm.Config.t ->
  buffer_bytes:int ->
  cache_pages:int ->
  ?shards:int ->
  fs_kind ->
  env
(** Mount a fresh file system of the given kind on a fresh device (daemons
    running). Call from inside a simulation process; call [teardown] when
    done so the daemons stop and the engine can drain. [shards] (default 1)
    shards the HiNFS hot state — per-shard buffer pools, journal regions
    and allocator ranges — and adds per-shard occupancy / journal gauges
    plus the epoch-commit counter; non-HiNFS kinds ignore it. *)
