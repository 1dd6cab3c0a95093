(* Shared helpers for the test suites. *)

module Soak = Soak

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device

(* Run [f] inside a fresh simulation; the engine runs until the process
   tree finishes, and [f]'s result is returned. *)
let run_sim f =
  let engine = Engine.create () in
  let result = ref None in
  Engine.spawn engine ~name:"test" (fun () -> result := Some (f engine));
  Engine.run engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation did not complete the test process"

(* A small device configuration for unit tests: 8 MB NVMM. *)
let small_config =
  { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }

let make_device ?(config = small_config) ?stats engine =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  Device.create engine stats config

(* Fresh PMFS on a fresh device, inside a running simulation. *)
let make_pmfs ?config ?stats engine =
  let device = make_device ?config ?stats engine in
  let fs = Hinfs_pmfs.Pmfs.mkfs_and_mount device ~journal_blocks:32 () in
  (device, fs)

(* Fresh HiNFS on a fresh device, inside a running simulation. Daemons are
   off by default so the engine drains when the test finishes; pass
   [daemons:true] and remember to unmount. *)
let make_hinfs ?config ?stats ?shards ?hcfg ?(daemons = false) engine =
  let device = make_device ?config ?stats engine in
  let fs =
    Hinfs.Fs.mkfs_and_mount device ~journal_blocks:32 ?shards ?hcfg
      ~daemons ()
  in
  (device, fs)

(* A small HiNFS buffer configuration for unit tests. *)
let small_hcfg =
  { Hinfs.Hconfig.default with Hinfs.Hconfig.buffer_bytes = 256 * 4096 }

(* [f] allocates nothing on the minor heap, the way it runs the second
   time: the first call may grow tables to their working size. Counts the
   minor words of one call against those of an empty one, so the check
   holds whatever the measurement itself costs. *)
let check_no_alloc what f =
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  f ();
  let base = words ignore in
  let used = words f -. base in
  Alcotest.(check (float 0.))
    (Printf.sprintf "%s: minor words allocated" what) 0. used

(* Deterministic pseudo-random payload. *)
let pattern_bytes ~seed len =
  let rng = Rng.create ~seed:(Int64.of_int (seed * 7919)) in
  Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

(* Convert qcheck tests to alcotest cases. *)
let qcheck_cases tests = List.map QCheck_alcotest.to_alcotest tests
