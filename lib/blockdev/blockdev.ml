(* NVMMBD: a RAM-disk-like block device on top of the NVMM device model.

   This reproduces the paper's NVMMBD emulator (a modified brd driver): the
   traditional file systems (EXT2/EXT4) run on top of it and therefore pay
   - the generic block layer software overhead per request, and
   - full-block transfers even for small updates.

   Requests are block-granular. Writes stream to the medium with NVMM cost
   (the brd "disk" is NVMM); reads are DRAM-speed. The per-request overhead
   is charged to the [Block_layer] stats category.

   A durability tier (lib/nvcache) can be interposed with {!attach_tier}:
   it sees every write before the request is issued and may absorb it into
   NVMM, and every read so it can serve blocks it still holds. Absorbed
   writes skip the block layer entirely — that bypass is the tier's whole
   performance story — and are counted separately. The tier destages back
   through {!write_range}, which pays the normal per-request overhead. *)

module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config

type tier = {
  tier_name : string;
  tier_write :
    background:bool ->
    cat:Stats.category ->
    block:int ->
    src:Bytes.t ->
    off:int ->
    dirty:(int * int) option ->
    bool;
      (** Offered every block write first, with the block-relative dirty
          byte run when the writer tracked one. Returning [true] means the
          write is durable in the tier (same completion contract as
          {!write_block}: ordered on media when the call returns). *)
  tier_read : cat:Stats.category -> block:int -> into:Bytes.t -> off:int -> bool;
      (** Offered every block read; [true] means [into] was filled with the
          tier's (newest) view of the block. *)
  tier_peek : block:int -> Bytes.t option;
      (** Untimed coherent view for {!peek_block}. *)
}

type t = {
  device : Device.t;
  block_size : int;
  nblocks : int;
  mutable tier : tier option;
}

let create device =
  let config = Device.config device in
  {
    device;
    block_size = config.Config.block_size;
    nblocks = Config.blocks config;
    tier = None;
  }

let device t = t.device
let block_size t = t.block_size
let attach_tier t tier = t.tier <- tier
let tier_name t = match t.tier with None -> None | Some x -> Some x.tier_name

let check_block t block =
  if block < 0 || block >= t.nblocks then
    Fmt.invalid_arg "Blockdev: block %d out of range [0, %d)" block t.nblocks

let charge_request t =
  Device.charge_ns t.device Stats.Block_layer
    (Device.config t.device).Config.block_request_ns

let read_block t ~cat block ~into ~off =
  check_block t block;
  if off < 0 || off + t.block_size > Bytes.length into then
    invalid_arg "Blockdev.read_block: bad destination range";
  charge_request t;
  Stats.add_block_read (Device.stats t.device);
  let served =
    match t.tier with
    | None -> false
    | Some tier -> tier.tier_read ~cat ~block ~into ~off
  in
  if not served then
    Device.read t.device ~cat ~addr:(block * t.block_size) ~len:t.block_size
      ~into ~off

let write_block ?(background = false) ?dirty t ~cat block ~src ~off =
  check_block t block;
  if off < 0 || off + t.block_size > Bytes.length src then
    invalid_arg "Blockdev.write_block: bad source range";
  let absorbed =
    match t.tier with
    | None -> false
    | Some tier -> tier.tier_write ~background ~cat ~block ~src ~off ~dirty
  in
  if absorbed then Stats.add_block_absorbed (Device.stats t.device)
  else begin
    charge_request t;
    Stats.add_block_write (Device.stats t.device);
    Device.write_nt ~background t.device ~cat ~addr:(block * t.block_size)
      ~src ~off ~len:t.block_size;
    (* Bio completion implies durability on the NVMM-backed brd: the request
       does not return until the streamed block is ordered on the medium.
       Without this fence the block journal's descriptor/commit ordering
       would not hold under partial-persist crash states. *)
    Device.mfence t.device ~cat
  end

(* Destage path: write an arbitrary byte range below the tier interception
   point as one block-layer request. No completion fence — the destage
   daemon batches its own ordering points. *)
let write_range ?(background = false) t ~cat ~addr ~src ~off ~len =
  if addr < 0 || len < 0 || addr + len > t.nblocks * t.block_size then
    invalid_arg "Blockdev.write_range: bad device range";
  charge_request t;
  Stats.add_block_write (Device.stats t.device);
  Device.write_nt ~background t.device ~cat ~addr ~src ~off ~len

(* Untimed helpers for mkfs and tests. *)

let peek_block t block =
  check_block t block;
  match t.tier with
  | Some tier -> (
    match tier.tier_peek ~block with
    | Some bytes -> bytes
    | None -> Device.peek t.device ~addr:(block * t.block_size) ~len:t.block_size)
  | None -> Device.peek t.device ~addr:(block * t.block_size) ~len:t.block_size

let poke_block t block ~src ~off =
  check_block t block;
  Device.poke t.device ~addr:(block * t.block_size) ~src ~off
    ~len:t.block_size
