(* Tests for the NVMM device model: data integrity, cache/crash semantics,
   timing charges, and the allocator. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Allocator = Hinfs_nvmm.Allocator
module Fault = Hinfs_nvmm.Fault
module Blockdev = Hinfs_blockdev.Blockdev

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

let cat = Stats.Other

(* --- config --- *)

let test_config_defaults () =
  let c = Config.default in
  check_int "cachelines per block" 64 (Config.cachelines_per_block c);
  (* 1 GB/s at 200ns per 64B line: 64/200e-9 = 320 MB/s per slot -> 3 slots *)
  check_int "nw slots" 3 (Config.nw_slots c);
  check_int "lines in aligned 4K" 64 (Config.cachelines_in c ~addr:0 ~len:4096);
  check_int "lines in unaligned range" 2
    (Config.cachelines_in c ~addr:60 ~len:8);
  check_int "lines in 1 byte" 1 (Config.cachelines_in c ~addr:0 ~len:1);
  check_int "lines in empty" 0 (Config.cachelines_in c ~addr:0 ~len:0)

let test_config_validation () =
  Alcotest.check_raises "bad cacheline"
    (Invalid_argument "Config: cacheline_size must be a positive power of two")
    (fun () ->
      ignore (Config.validate { Config.default with Config.cacheline_size = 48 }))

let test_nw_slots_sweep () =
  (* Higher latency at same bandwidth means more concurrent slots. *)
  let slots lat =
    Config.nw_slots { Config.default with Config.nvmm_write_ns = lat }
  in
  check_int "50ns" 1 (slots 50);
  check_int "200ns" 3 (slots 200);
  check_int "800ns" 13 (slots 800)

(* --- device data integrity --- *)

let test_write_nt_read_back () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let payload = Testkit.pattern_bytes ~seed:1 1000 in
      Device.write_nt d ~cat ~addr:123 ~src:payload ~off:0 ~len:1000;
      let back = Device.read_alloc d ~cat ~addr:123 ~len:1000 in
      Testkit.check_bytes "round trip" payload back)

let test_cached_write_visible_before_flush () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let payload = Testkit.pattern_bytes ~seed:2 100 in
      Device.write_cached d ~cat ~addr:4096 ~src:payload ~off:0 ~len:100;
      (* Coherent view sees it... *)
      let back = Device.read_alloc d ~cat ~addr:4096 ~len:100 in
      Testkit.check_bytes "coherent read" payload back;
      (* ...but the medium does not. *)
      let persisted = Device.peek_persistent d ~addr:4096 ~len:100 in
      check_bool "not yet persistent" true
        (Bytes.to_string persisted = String.make 100 '\000'))

let test_crash_drops_unflushed () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let payload = Testkit.pattern_bytes ~seed:3 256 in
      Device.write_cached d ~cat ~addr:0 ~src:payload ~off:0 ~len:256;
      (* Flush only the first two cachelines. *)
      Device.clflush d ~cat ~addr:0 ~len:128;
      Device.crash d;
      let back = Device.peek d ~addr:0 ~len:256 in
      Testkit.check_bytes "flushed part survived"
        (Bytes.sub payload 0 128) (Bytes.sub back 0 128);
      check_bool "unflushed part lost" true
        (Bytes.to_string (Bytes.sub back 128 128) = String.make 128 '\000'))

let test_write_nt_survives_crash () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let payload = Testkit.pattern_bytes ~seed:4 512 in
      Device.write_nt d ~cat ~addr:8192 ~src:payload ~off:0 ~len:512;
      Device.crash d;
      let back = Device.peek d ~addr:8192 ~len:512 in
      Testkit.check_bytes "nt store persistent" payload back)

let test_write_nt_invalidates_overlay () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let cached = Bytes.make 64 'A' in
      Device.write_cached d ~cat ~addr:0 ~src:cached ~off:0 ~len:64;
      let nt = Bytes.make 64 'B' in
      Device.write_nt d ~cat ~addr:0 ~src:nt ~off:0 ~len:64;
      (* Full-line NT store wins over the stale cached copy. *)
      let back = Device.read_alloc d ~cat ~addr:0 ~len:64 in
      Testkit.check_bytes "nt wins" nt back;
      check_int "overlay dropped" 0 (Device.dirty_cachelines d))

let test_write_nt_partial_line_merges_overlay () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let cached = Bytes.make 64 'A' in
      Device.write_cached d ~cat ~addr:0 ~src:cached ~off:0 ~len:64;
      let nt = Bytes.make 16 'B' in
      Device.write_nt d ~cat ~addr:8 ~src:nt ~off:0 ~len:16;
      let back = Device.read_alloc d ~cat ~addr:0 ~len:64 in
      let expected = Bytes.make 64 'A' in
      Bytes.fill expected 8 16 'B';
      Testkit.check_bytes "merged view" expected back)

let test_dirty_line_tracking () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      check_int "clean initially" 0 (Device.dirty_cachelines d);
      let b = Bytes.make 1 'x' in
      Device.write_cached d ~cat ~addr:100 ~src:b ~off:0 ~len:1;
      check_int "one dirty line" 1 (Device.dirty_cachelines d);
      check_bool "line 1 dirty" true (Device.is_dirty_line d 1);
      Device.clflush d ~cat ~addr:64 ~len:64;
      check_int "clean after flush" 0 (Device.dirty_cachelines d))

(* --- timing --- *)

let test_write_nt_timing () =
  let stats = Stats.create () in
  let elapsed =
    Testkit.run_sim (fun engine ->
        let d = Testkit.make_device ~stats engine in
        let t0 = Proc.now () in
        let payload = Bytes.make 4096 'x' in
        Device.write_nt d ~cat ~addr:0 ~src:payload ~off:0 ~len:4096;
        Int64.sub (Proc.now ()) t0)
  in
  (* 64 lines x 200 ns *)
  check_i64 "nt write cost" 12_800L elapsed;
  check_i64 "charged to category" 12_800L (Stats.time stats cat);
  check_i64 "bytes counted" 4096L (Stats.nvmm_bytes_written stats)

let test_bandwidth_throttling () =
  (* With 3 slots, 6 concurrent 64-line writes take twice as long as 3. *)
  let engine = Engine.create () in
  let stats = Stats.create () in
  let d = Device.create engine stats Testkit.small_config in
  let payload = Bytes.make 4096 'x' in
  for i = 0 to 5 do
    Engine.spawn engine (fun () ->
        Device.write_nt d ~cat ~addr:(i * 4096) ~src:payload ~off:0 ~len:4096)
  done;
  Engine.run engine;
  check_i64 "6 writes on 3 slots take 2 rounds" 25_600L (Engine.now engine)

let test_clflush_only_pays_for_dirty () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let b = Bytes.make 64 'x' in
      Device.write_cached d ~cat ~addr:0 ~src:b ~off:0 ~len:64;
      (* Flush 4 lines, only 1 dirty. *)
      Device.clflush d ~cat ~addr:0 ~len:256);
  check_i64 "only dirty line counted" 64L (Stats.nvmm_bytes_written stats)

let test_read_timing () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let buf = Bytes.create 4096 in
      Device.read d ~cat:Stats.Read_access ~addr:0 ~len:4096 ~into:buf ~off:0);
  (* 64 lines x 8 ns dram read *)
  check_i64 "read cost" 512L (Stats.time stats Stats.Read_access)

let test_bounds_checking () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let size = Device.size d in
      let b = Bytes.make 16 'x' in
      let raised = ref false in
      (try Device.write_nt d ~cat ~addr:(size - 8) ~src:b ~off:0 ~len:16
       with Invalid_argument _ -> raised := true);
      check_bool "out of bounds rejected" true !raised)

(* --- allocator --- *)

let test_allocator_basic () =
  let a = Allocator.create ~policy:Lowest_free ~first_block:10 ~count:5 in
  check_int "free" 5 (Allocator.free_blocks a);
  let b1 = Option.get (Allocator.alloc a) in
  check_int "first block" 10 b1;
  let rest = List.init 4 (fun _ -> Option.get (Allocator.alloc a)) in
  Alcotest.(check (list int)) "sequential" [ 11; 12; 13; 14 ] rest;
  Alcotest.(check (option int)) "exhausted" None (Allocator.alloc a);
  Allocator.free a 12;
  Alcotest.(check (option int)) "reuses freed" (Some 12) (Allocator.alloc a)

let test_allocator_double_free () =
  let a = Allocator.create ~policy:Lowest_free ~first_block:0 ~count:4 in
  let b = Option.get (Allocator.alloc a) in
  Allocator.free a b;
  Alcotest.check_raises "double free"
    (Invalid_argument "Allocator.free: double free") (fun () ->
      Allocator.free a b)

module IntSet = Set.Make (Int)

(* Each policy against a reference model over the sorted set of free
   blocks: [Lowest_free] takes its minimum; [Rolling] takes the first block
   at or after a next-fit cursor (one past the last allocation), wrapping
   to the minimum. *)
let allocator_no_double_alloc_prop =
  QCheck.Test.make ~name:"allocator never double-allocates" ~count:100
    QCheck.(list (option ~ratio:0.5 (int_bound 49)))
    (fun ops ->
      (* Some x = try to free block x if held; None = alloc. *)
      let run policy name =
        let count = 50 in
        let a = Allocator.create ~policy ~first_block:0 ~count in
        let free = ref (IntSet.of_list (List.init count Fun.id)) in
        let cursor = ref 0 in
        List.iter
          (fun op ->
            match op with
            | None ->
              let expected =
                match policy with
                | Allocator.Lowest_free -> IntSet.min_elt_opt !free
                | Rolling -> (
                  match IntSet.find_first_opt (fun b -> b >= !cursor) !free with
                  | Some _ as b -> b
                  | None -> IntSet.min_elt_opt !free)
              in
              let got = Allocator.alloc a in
              if got <> expected then
                QCheck.Test.fail_reportf "%s: alloc gave %a, model %a" name
                  Fmt.(Dump.option int) got Fmt.(Dump.option int) expected;
              Option.iter
                (fun b ->
                  free := IntSet.remove b !free;
                  cursor := b + 1)
                got
            | Some b ->
              if not (IntSet.mem b !free) then begin
                Allocator.free a b;
                free := IntSet.add b !free
              end)
          ops;
        Allocator.used_blocks a = count - IntSet.cardinal !free
      in
      run Allocator.Lowest_free "lowest-free" && run Allocator.Rolling "rolling")

(* --- the paged medium against a flat reference --- *)

(* Small pages, so random ranges cross page boundaries often: 16 pages of
   256 B, 4 cachelines each. *)
let paged_config =
  { Config.default with Config.block_size = 256; nvmm_size = 4096 }

(* The flat reference: the medium as one [Bytes], the CPU cache as a table
   of whole lines. *)
module Flat = struct
  let ls = paged_config.Config.cacheline_size

  type t = { medium : Bytes.t; cache : (int, Bytes.t) Hashtbl.t }

  let create medium = { medium; cache = Hashtbl.create 16 }

  let iter_lines addr len f =
    for idx = addr / ls to (addr + len - 1) / ls do
      let s = max addr (idx * ls) and e = min (addr + len) ((idx + 1) * ls) in
      f idx ~line_off:(s - (idx * ls)) ~src_off:(s - addr) ~n:(e - s)
    done

  let view t =
    let b = Bytes.copy t.medium in
    Hashtbl.iter (fun idx line -> Bytes.blit line 0 b (idx * ls) ls) t.cache;
    b

  let write_cached t addr src =
    iter_lines addr (Bytes.length src) (fun idx ~line_off ~src_off ~n ->
        let line =
          match Hashtbl.find_opt t.cache idx with
          | Some line -> line
          | None ->
            let line = Bytes.sub t.medium (idx * ls) ls in
            Hashtbl.replace t.cache idx line;
            line
        in
        Bytes.blit src src_off line line_off n)

  (* A store straight to the medium. Cached copies of the lines it covers
     merge its bytes; with [drop], fully covered ones leave the cache. *)
  let write_medium ~drop t addr src =
    let len = Bytes.length src in
    Bytes.blit src 0 t.medium addr len;
    iter_lines addr len (fun idx ~line_off ~src_off ~n ->
        match Hashtbl.find_opt t.cache idx with
        | None -> ()
        | Some _ when drop && n = ls -> Hashtbl.remove t.cache idx
        | Some line -> Bytes.blit src src_off line line_off n)

  let clflush t addr len =
    iter_lines addr len (fun idx ~line_off:_ ~src_off:_ ~n:_ ->
        match Hashtbl.find_opt t.cache idx with
        | None -> ()
        | Some line ->
          Bytes.blit line 0 t.medium (idx * ls) ls;
          Hashtbl.remove t.cache idx)

  let crash t = Hashtbl.reset t.cache

  (* [Device.image_digest] of an image with these bytes: the digest of
     the per-page digests. *)
  let digest medium =
    let ps = paged_config.Config.block_size in
    List.init (Bytes.length medium / ps) (fun p ->
        Digest.bytes (Bytes.sub medium (p * ps) ps))
    |> String.concat "" |> Digest.string
end

type medium_op =
  | Cached of int * int * int (* addr, len, fill (see [payload]) *)
  | Nt of int * int * int
  | Zero of int * int (* addr, len: [Device.zero_nt] *)
  | Poke of int * int * int
  | Poke_flushed of int * int * int
  | Cached_flush of int * int * int (* write_cached, then clflush it *)
  | Refill of int * int * int * int
      (* page, fill, piece length, store (0 nt, 1 poke, 2 cached + flush):
         the page stored with one byte a piece at a time *)
  | Clflush of int * int
  | Mfence
  | Crash
  | Record (* enable the persistence recorder *)
  | Unrecord (* disable it *)
  | Read_lines of int * int (* first line, count: [Device.read_lines] *)
  | Nt_lines of int * int * int
      (* first line, count, fill: [Device.write_nt_lines]; with an even
         fill the first slot is the line last handed out, stored back *)
  | Fork (* snapshot this device into a new one, and keep the image *)
  | Switch of int (* continue on device [n mod count] *)
  | Capture of int (* capture a crash state, materialise a seeded choice *)
  | Words of int (* get_u8/u16/u32/u64 at an address *)

let show_medium_op = function
  | Cached (a, l, f) -> Fmt.str "Cached(%d,%d,%d)" a l f
  | Nt (a, l, f) -> Fmt.str "Nt(%d,%d,%d)" a l f
  | Zero (a, l) -> Fmt.str "Zero(%d,%d)" a l
  | Poke (a, l, f) -> Fmt.str "Poke(%d,%d,%d)" a l f
  | Poke_flushed (a, l, f) -> Fmt.str "Poke_flushed(%d,%d,%d)" a l f
  | Cached_flush (a, l, f) -> Fmt.str "Cached_flush(%d,%d,%d)" a l f
  | Refill (p, f, n, k) -> Fmt.str "Refill(%d,%d,%d,%d)" p f n k
  | Clflush (a, l) -> Fmt.str "Clflush(%d,%d)" a l
  | Mfence -> "Mfence"
  | Crash -> "Crash"
  | Record -> "Record"
  | Unrecord -> "Unrecord"
  | Read_lines (l, k) -> Fmt.str "Read_lines(%d,%d)" l k
  | Nt_lines (l, k, f) -> Fmt.str "Nt_lines(%d,%d,%d)" l k f
  | Fork -> "Fork"
  | Switch n -> Fmt.str "Switch %d" n
  | Capture s -> Fmt.str "Capture %d" s
  | Words a -> Fmt.str "Words %d" a

(* A store's bytes: [fill] 0 is zeros, 1 to 255 that byte throughout, and
   above a pseudo-random pattern seeded by it. *)
let payload fill len =
  if fill < 256 then Bytes.make len (Char.chr fill)
  else Testkit.pattern_bytes ~seed:fill len

let medium_op_gen =
  let open QCheck.Gen in
  let size = paged_config.Config.nvmm_size
  and ps = paged_config.Config.block_size
  and ls = paged_config.Config.cacheline_size in
  let pages = size / ps and lines = size / ls in
  (* Any range; one inside a line; one across a line boundary (a page
     boundary for one in four); whole lines, one or two; or whole pages,
     one or two: the stores that may point a line or a page at a fill. *)
  let range =
    frequency
      [
        ( 3,
          int_bound (size - 1) >>= fun addr ->
          int_range 1 (min 600 (size - addr)) >|= fun len -> (addr, len) );
        ( 2,
          int_bound (size - 1) >>= fun addr ->
          int_range 1 (ls - (addr mod ls)) >|= fun len -> (addr, len) );
        ( 2,
          int_range 1 (lines - 1) >>= fun b ->
          pair (int_range 1 (ls - 1)) (int_range 1 ls) >|= fun (k, j) ->
          ((b * ls) - k, k + j) );
        ( 2,
          int_bound (lines - 1) >>= fun l ->
          int_range 1 (min 2 (lines - l)) >|= fun k -> (l * ls, k * ls) );
        ( 1,
          int_bound (pages - 1) >>= fun p ->
          int_range 1 (min 2 (pages - p)) >|= fun k -> (p * ps, k * ps) );
      ]
  in
  (* Few fill bytes, so stores often meet the fill line of their own byte
     or of another one. *)
  let fill =
    frequency
      [ (1, return 0); (2, oneofl [ 1; 2; 0x80; 0xff ]); (2, int_range 256 1000) ]
  in
  let store k = map2 (fun (a, l) f -> k a l f) range fill in
  (* The whole lines from [a]'s that a range of [l] bytes touches, at most
     four. *)
  let lines_in a l = min 4 (((a + l - 1) / ls) - (a / ls) + 1) in
  frequency
    [
      (4, store (fun a l f -> Cached (a, l, f)));
      (2, store (fun a l f -> Nt (a, l, f)));
      (1, map (fun (a, l) -> Zero (a, l)) range);
      (1, store (fun a l f -> Poke (a, l, f)));
      (1, store (fun a l f -> Poke_flushed (a, l, f)));
      (2, store (fun a l f -> Cached_flush (a, l, f)));
      ( 1,
        map4
          (fun p f n k -> Refill (p, f, n, k))
          (int_bound (pages - 1))
          (oneofl [ 0; 1; 0xff ])
          (oneofl [ 1; 7; 32; 50; 64; 100 ])
          (int_bound 2) );
      (3, map (fun (a, l) -> Clflush (a, l)) range);
      (2, return Mfence);
      (1, return Crash);
      (1, return Record);
      (1, return Unrecord);
      (3, map (fun (a, l) -> Read_lines (a / ls, lines_in a l)) range);
      (2, store (fun a l f -> Nt_lines (a / ls, lines_in a l, f)));
      (1, return Fork);
      (1, map (fun n -> Switch n) (int_bound 7));
      (2, map (fun s -> Capture s) (int_bound 1000));
      (1, map (fun a -> Words a) (int_bound (size - 8)));
    ]

(* Run [ops] on a device and on the flat reference side by side; [Some
   msg] names the first disagreement. After every op the device's
   [read], [peek] and [peek_persistent] of the whole medium must equal the
   reference byte for byte, and its [dirty_cachelines] the reference's
   cached line count; with [digests], a snapshot of it must digest as
   the reference's bytes (a snapshot takes the device's tables away, so
   runs without keep stores into owned tables across ops). After every
   op, too, every image taken on the way (snapshots, crash states and
   the crash images materialised from them) must still hold the bytes it
   was taken with and digest as them, and so must every line handed out
   by [Device.read_lines] or handed over to [Device.write_nt_lines]: no
   line is shared writably between a device, its images, the crash
   candidates and the lines a caller holds, however the device recycles
   the lines it retires. At the end every device forked on the way must
   match its reference. *)
let run_medium_ops ~digests engine ops =
  let size = paged_config.Config.nvmm_size and ls = Flat.ls in
  let sides =
    ref
      [|
        ( Device.create engine (Stats.create ()) paged_config,
          Flat.create (Bytes.make size '\000') );
      |]
  in
  let cur = ref 0 in
  let images = ref [] in
  let held = ref [] in (* lines a caller holds, each with its bytes *)
  let hold line = held := (line, Bytes.copy line) :: !held in
  let bad = ref None in
  let step = ref 0 in
  let fail what =
    if !bad = None then bad := Some (Fmt.str "op %d: %s" !step what)
  in
  let check_bytes what expected actual =
    if not (Bytes.equal expected actual) then fail what
  in
  let check_image what (image, bytes) =
    check_bytes what bytes (Device.image_to_bytes image);
    if not (Digest.equal (Device.image_digest image) (Flat.digest bytes)) then
      fail (what ^ ": digest")
  in
  let check_side (d, (r : Flat.t)) =
    if Device.dirty_cachelines d <> Hashtbl.length r.cache then
      fail "dirty_cachelines";
    check_bytes "read" (Flat.view r)
      (Device.read_alloc d ~cat ~addr:0 ~len:size);
    check_bytes "peek" (Flat.view r) (Device.peek d ~addr:0 ~len:size);
    check_bytes "peek_persistent" r.medium
      (Device.peek_persistent d ~addr:0 ~len:size)
  in
  List.iter
    (fun op ->
      incr step;
      let d, (r : Flat.t) = !sides.(!cur) in
      (match op with
      | Cached (addr, len, fill) ->
        let src = payload fill len in
        Device.write_cached d ~cat ~addr ~src ~off:0 ~len;
        Flat.write_cached r addr src
      | Nt (addr, len, fill) ->
        let src = payload fill len in
        Device.write_nt d ~cat ~addr ~src ~off:0 ~len;
        Flat.write_medium ~drop:true r addr src
      | Zero (addr, len) ->
        Device.zero_nt d ~cat ~addr ~len;
        Flat.write_medium ~drop:true r addr (Bytes.make len '\000')
      | Poke (addr, len, fill) ->
        let src = payload fill len in
        Device.poke d ~addr ~src ~off:0 ~len;
        Flat.write_medium ~drop:false r addr src
      | Poke_flushed (addr, len, fill) ->
        let src = payload fill len in
        Device.poke_flushed d ~addr ~src ~off:0 ~len;
        Flat.write_medium ~drop:true r addr src
      | Cached_flush (addr, len, fill) ->
        let src = payload fill len in
        Device.write_cached d ~cat ~addr ~src ~off:0 ~len;
        Device.clflush d ~cat ~addr ~len;
        Flat.write_cached r addr src;
        Flat.clflush r addr len
      | Refill (p, fill, piece, how) ->
        let ps = paged_config.Config.block_size in
        let addr = ref (p * ps) in
        while !addr < (p + 1) * ps do
          let len = min piece (((p + 1) * ps) - !addr) in
          let src = payload fill len and addr' = !addr in
          (match how with
          | 0 ->
            Device.write_nt d ~cat ~addr:addr' ~src ~off:0 ~len;
            Flat.write_medium ~drop:true r addr' src
          | 1 ->
            Device.poke d ~addr:addr' ~src ~off:0 ~len;
            Flat.write_medium ~drop:false r addr' src
          | _ ->
            Device.write_cached d ~cat ~addr:addr' ~src ~off:0 ~len;
            Device.clflush d ~cat ~addr:addr' ~len;
            Flat.write_cached r addr' src;
            Flat.clflush r addr' len);
          addr := !addr + len
        done
      | Clflush (addr, len) ->
        Device.clflush d ~cat ~addr ~len;
        Flat.clflush r addr len
      | Mfence -> Device.mfence d ~cat
      | Crash ->
        Device.crash d;
        Flat.crash r
      | Record ->
        if not (Device.recording d) then begin
          Device.enable_recording d;
          Flat.clflush r 0 size
        end
      | Unrecord -> if Device.recording d then Device.disable_recording d
      | Read_lines (l, k) ->
        let into = Array.make k Bytes.empty in
        Device.read_lines d ~cat ~addr:(l * ls) ~len:(k * ls) ~into ~first:0;
        check_bytes "read_lines"
          (Bytes.sub (Flat.view r) (l * ls) (k * ls))
          (Bytes.concat Bytes.empty (Array.to_list into));
        Array.iter hold into
      | Nt_lines (l, k, fill) ->
        let src = payload fill (k * ls) in
        let lines =
          Array.init k (fun i ->
              match !held with
              | (line, _) :: _ when i = 0 && fill mod 2 = 0 -> line
              | _ -> Bytes.sub src (i * ls) ls)
        in
        let src = Bytes.concat Bytes.empty (Array.to_list lines) in
        Device.write_nt_lines ~background:false d ~cat ~addr:(l * ls)
          ~len:(k * ls) ~lines ~first:0;
        Flat.write_medium ~drop:true r (l * ls) src;
        Array.iter hold lines
      | Fork ->
        let image = Device.snapshot d in
        images := (image, Bytes.copy r.medium) :: !images;
        sides :=
          Array.append !sides
            [|
              ( Device.of_snapshot engine (Stats.create ()) paged_config image,
                Flat.create (Bytes.copy r.medium) );
            |]
      | Switch n -> cur := n mod Array.length !sides
      | Capture seed ->
        let state = Device.capture_crash_state d in
        let rng = Random.State.make [| seed |] in
        let choice =
          Array.of_list
            (List.map
               (fun (_, c) -> Random.State.int rng (Array.length c))
               state.Device.cs_choices)
        in
        let image = Device.materialize_crash_image state ~choice in
        let expected = Bytes.copy r.medium in
        List.iteri
          (fun i (idx, c) -> Bytes.blit c.(choice.(i)) 0 expected (idx * ls) ls)
          state.Device.cs_choices;
        check_bytes "crash-state medium" r.medium
          (Device.image_to_bytes state.Device.cs_image);
        check_bytes "crash image" expected (Device.image_to_bytes image);
        images :=
          (image, expected) :: (state.Device.cs_image, Bytes.copy r.medium)
          :: !images
      | Words addr ->
        let v = Flat.view r in
        if Device.get_u8 d addr <> Bytes.get_uint8 v addr then fail "get_u8";
        if Device.get_u16 d addr <> Bytes.get_uint16_le v addr then
          fail "get_u16";
        if
          Device.get_u32 d addr
          <> Int32.to_int (Bytes.get_int32_le v addr) land 0xFFFFFFFF
        then fail "get_u32";
        if not (Int64.equal (Device.get_u64 d addr) (Bytes.get_int64_le v addr))
        then fail "get_u64");
      let ((d, r) as side) = !sides.(!cur) in
      check_side side;
      if digests then check_image "snapshot" (Device.snapshot d, r.medium);
      List.iter (check_image "an earlier image") !images;
      List.iter (fun (line, bytes) -> check_bytes "a held line" bytes line) !held)
    ops;
  incr step;
  Array.iter check_side !sides;
  !bad

let medium_matches_flat_prop =
  QCheck.Test.make ~name:"paged medium matches a flat reference" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair bool (list show_medium_op))
       QCheck.Gen.(pair bool (list_size (int_range 1 60) medium_op_gen)))
    (fun (digests, ops) ->
      match
        Testkit.run_sim (fun engine -> run_medium_ops ~digests engine ops)
      with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* The medium backs only the pages something wrote: PMFS's mkfs zeroes
   its inode table into never-written pages, which stay unbacked. *)
let test_mkfs_residency () =
  Testkit.run_sim (fun engine ->
      let config =
        { Config.default with Config.nvmm_size = 384 * 1024 * 1024 }
      in
      let d = Testkit.make_device ~config engine in
      check_int "a fresh device backs no page" 0 (Device.resident_pages d);
      Hinfs_pmfs.Pmfs.mkfs d ();
      let n = Device.resident_pages d in
      check_bool (Fmt.str "mkfs backs %d pages (< 64)" n) true (n < 64))

(* The medium backs lines, not pages: a PMFS file whose tail fills part
   of a block adds its tail line and a few metadata lines (inode, dirent,
   journal), and so does a multi-block file with an index node, whose few
   pointers share one line. A private page apiece would add 64 lines. *)
let test_file_footprint () =
  Testkit.run_sim (fun engine ->
      let module Pmfs = Hinfs_pmfs.Pmfs in
      let d, fs = Testkit.make_pmfs engine in
      let bs = (Device.config d).Config.block_size in
      let root = Hinfs_pmfs.Layout.root_ino in
      let write name len =
        let ino = Pmfs.create_file fs ~dir:root name in
        ignore
          (Pmfs.write fs ~ino ~off:0 ~src:(Bytes.make len 'p') ~src_off:0 ~len
             ~sync:true)
      in
      (* The first file backs the root directory's dirent block. *)
      write "warmup" 100;
      let files = 16 in
      let before = Device.resident_lines d in
      for i = 1 to files do
        write (Fmt.str "f%d" i) ((i * 1000) mod bs + 1)
      done;
      let grown = Device.resident_lines d - before in
      check_bool
        (Fmt.str "%d files with partial tails add %d lines (<= 4 each)" files
           grown)
        true
        (grown <= 4 * files);
      let before = Device.resident_lines d in
      write "multi" ((3 * bs) + 500);
      let grown = Device.resident_lines d - before in
      check_bool
        (Fmt.str "a 4-block file with an index node adds %d lines (<= 6)"
           grown)
        true (grown <= 6))

(* A snapshot and a device made from it share the pages: the round trip
   copies page pointers, not pages, and a later write on either side
   stays on that side. *)
let test_snapshot_shares_pages () =
  Testkit.run_sim (fun engine ->
      let config = { Config.default with Config.nvmm_size = 1024 * 1024 } in
      let d = Testkit.make_device ~config engine in
      let pages = Config.blocks config and ps = config.Config.block_size in
      for p = 0 to pages - 1 do
        Device.poke d ~addr:(p * ps) ~src:(Bytes.make 1 'x') ~off:0 ~len:1
      done;
      check_int "every page backed" pages (Device.resident_pages d);
      (* Each sample is taken with the minor heap empty: where a minor
         collection falls otherwise moves the reading. *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let image = Device.snapshot d in
      let d2 = Device.of_snapshot engine (Stats.create ()) config image in
      Gc.minor ();
      let allocated = Gc.allocated_bytes () -. before in
      check_bool
        (Fmt.str "round trip allocates %.0f B, under a tenth of the medium"
           allocated)
        true
        (allocated < float_of_int (config.Config.nvmm_size / 10));
      check_int "the copy backs the same pages" pages
        (Device.resident_pages d2);
      Device.poke d2 ~addr:0 ~src:(Bytes.make 1 'y') ~off:0 ~len:1;
      Device.poke d ~addr:ps ~src:(Bytes.make 1 'z') ~off:0 ~len:1;
      check_int "copy sees its write" (Char.code 'y') (Device.get_u8 d2 0);
      check_int "copy misses the original's write" (Char.code 'x')
        (Device.get_u8 d2 ps);
      check_int "original misses the copy's write" (Char.code 'x')
        (Device.get_u8 d 0);
      check_int "image unchanged" (Char.code 'x')
        (Bytes.get_uint8 (Device.image_to_bytes image) 0))

(* The device reuses a line it retires only when nobody else holds it.
   Three holders, each followed by stores and flushes of the very line
   they hold, each of which retires the medium's line: a line handed out
   by [read_lines], one handed over to [write_nt_lines], and the
   guaranteed content a recorder keeps for crash states. *)
let test_recycling_spares_held_lines () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let ls = (Device.config d).Config.cacheline_size in
      let store_and_flush addr c =
        Device.write_cached d ~cat ~addr ~src:(Bytes.make 8 c) ~off:0 ~len:8;
        Device.clflush d ~cat ~addr ~len:8
      in
      let churn addr =
        List.iter (fun c -> store_and_flush addr c) [ 'a'; 'b'; 'c'; 'd' ]
      in
      let expect what held bytes =
        Array.iteri
          (fun i line ->
            Testkit.check_bytes what (Bytes.sub bytes (i * ls) ls) line)
          held
      in
      (* A fresh page, taken from the zero table: the device's own. *)
      store_and_flush 4096 'x';
      let read = Array.make 1 Bytes.empty in
      Device.read_lines d ~cat ~addr:4096 ~len:ls ~into:read ~first:0;
      let bytes = Bytes.copy read.(0) in
      churn 4096;
      expect "a line read_lines handed out" read bytes;
      let written = [| Testkit.pattern_bytes ~seed:7 ls |] in
      let bytes = Bytes.copy written.(0) in
      Device.write_nt_lines ~background:false d ~cat ~addr:8192 ~len:ls
        ~lines:written ~first:0;
      churn 8192;
      expect "a line handed to write_nt_lines" written bytes;
      Device.enable_recording d;
      store_and_flush 12288 'x';
      Device.mfence d ~cat;
      let fenced = Device.peek_persistent d ~addr:12288 ~len:ls in
      churn 12288;
      let state = Device.capture_crash_state d in
      let image =
        Device.materialize_crash_image state
          ~choice:(Array.make (List.length state.Device.cs_choices) 0)
      in
      Testkit.check_bytes "the guaranteed line of a crash state" fenced
        (Bytes.sub (Device.image_to_bytes image) 12288 ls))

(* A metadata store and its flush reuse lines: the flush retires the
   medium's old line (the page holds only the device's own lines) and the
   next store copies into it. Warm, the pair allocates nothing. *)
let test_store_and_flush_no_alloc () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let src = Bytes.make 8 'm' in
      let store_and_flush () =
        for i = 0 to 3 do
          Bytes.set src 0 (Char.chr (Char.code (Bytes.get src 0) lxor 1));
          Device.write_cached d ~cat ~addr:(4096 + (i * 24)) ~src ~off:0
            ~len:8
        done;
        Device.clflush d ~cat ~addr:4096 ~len:128;
        Device.mfence d ~cat
      in
      store_and_flush ();
      let before = Device.resident_lines d in
      Testkit.check_no_alloc "a warm metadata store and flush" (fun () ->
          for _ = 1 to 100 do
            store_and_flush ()
          done);
      check_int "the same lines resident" before (Device.resident_lines d);
      check_int "nothing dirty" 0 (Device.dirty_cachelines d);
      Testkit.check_bytes "the last store persisted" src
        (Device.peek_persistent d ~addr:(4096 + 72) ~len:8))

(* A page of one byte value is that value's shared fill table: a
   whole-page store of one byte backs no table, a partial store of other
   bytes copies it, images on either side keep their bytes, and a page
   stored in pieces returns to the fill table. *)
let test_fill_pages () =
  Testkit.run_sim (fun engine ->
      let config = { Config.default with Config.nvmm_size = 1024 * 1024 } in
      let ps = config.Config.block_size in
      let d = Testkit.make_device ~config engine in
      let store d ~addr ~len c =
        Device.write_nt d ~cat ~addr ~src:(Bytes.make len c) ~off:0 ~len
      in
      let page image p = Bytes.sub (Device.image_to_bytes image) (p * ps) ps in
      store d ~addr:ps ~len:(2 * ps) 'f';
      check_int "whole-page stores of one byte back no table" 0
        (Device.resident_pages d);
      store d ~addr:(ps + 8) ~len:100 'f';
      check_int "a store of the fill byte into its page copies nothing" 0
        (Device.resident_pages d);
      let shared = Device.snapshot d in
      store d ~addr:(ps + 8) ~len:100 'g';
      check_int "a partial store of another byte copies the table" 1
        (Device.resident_pages d);
      let mixed = Bytes.make ps 'f' in
      Bytes.fill mixed 8 100 'g';
      let copied = Device.snapshot d in
      (* The image took the copy; the device makes and owns another. *)
      store d ~addr:(ps + 8) ~len:1 'g';
      store d ~addr:ps ~len:ps 'f';
      check_int "a whole-page store drops the copy" 0 (Device.resident_pages d);
      store d ~addr:ps ~len:1 'h';
      check_int "a store after the drop copies the fill table" 1
        (Device.resident_pages d);
      Testkit.check_bytes "the other page of the fill stays the fill"
        (Bytes.make ps 'f') (Device.peek d ~addr:(2 * ps) ~len:ps);
      store d ~addr:ps ~len:ps 'f';
      Testkit.check_bytes "the image taken before the copy keeps the fill"
        (Bytes.make ps 'f') (page shared 1);
      Testkit.check_bytes "the image taken of the copy keeps its bytes" mixed
        (page copied 1);
      Testkit.check_bytes "the other page of the fill is untouched"
        (Bytes.make ps 'f') (page copied 2);
      (* The same bytes, stored half a page at a time: each page returns
         to the fill table once its last line is the fill line. *)
      let d2 = Testkit.make_device ~config engine in
      for i = 2 to 5 do
        store d2 ~addr:(i * ps / 2) ~len:(ps / 2) 'f'
      done;
      check_int "half-page stores back no table" 0 (Device.resident_pages d2);
      let a = Device.snapshot d and b = Device.snapshot d2 in
      Testkit.check_bytes "same bytes" (Device.image_to_bytes a)
        (Device.image_to_bytes b);
      check_bool "the same bytes digest the same" true
        (Digest.equal (Device.image_digest a) (Device.image_digest b)))

(* The image digest of a fixed small image, pinned: crashmc dedups crash
   images by digest, so a change of representation must not move it. The
   image holds a page of one value stored whole, a page of mixed bytes, a
   page of one value stored in pieces, a file tail followed by zeros, an
   index-node-like page of a few words, and, in a materialised crash
   image, a flushed but unfenced line at its older content. *)
let pinned_image () =
  Testkit.run_sim (fun engine ->
      let config = { Config.default with Config.nvmm_size = 16 * 4096 } in
      let ps = config.Config.block_size in
      let d = Testkit.make_device ~config engine in
      let store ~addr src =
        Device.write_nt d ~cat ~addr ~src ~off:0 ~len:(Bytes.length src)
      in
      store ~addr:ps (Bytes.make ps 'f');
      store ~addr:(2 * ps) (Testkit.pattern_bytes ~seed:3 ps);
      for i = 0 to 3 do
        store ~addr:((3 * ps) + (i * ps / 4)) (Bytes.make (ps / 4) 'g')
      done;
      store ~addr:(4 * ps) (Bytes.make 3000 'p');
      Device.zero_nt d ~cat ~addr:((4 * ps) + 3000) ~len:(ps - 3000);
      List.iter
        (fun slot -> Device.set_u64 d ~cat ((5 * ps) + (8 * slot)) 0x1234L)
        [ 0; 1; 7; 300 ];
      Device.enable_recording d;
      Device.write_cached d ~cat ~addr:((6 * ps) + 64)
        ~src:(Testkit.pattern_bytes ~seed:4 100)
        ~off:0 ~len:100;
      Device.clflush d ~cat ~addr:((6 * ps) + 64) ~len:100;
      let state = Device.capture_crash_state d in
      let choice = Array.make (List.length state.Device.cs_choices) 0 in
      ( Device.image_digest state.Device.cs_image,
        Device.image_digest (Device.materialize_crash_image state ~choice) ))

let test_pinned_digest () =
  let base, crash = pinned_image () in
  Alcotest.(check string) "image digest" "f51ad7dea10e1d42fae220b885e34b63" (Digest.to_hex base);
  Alcotest.(check string) "crash image digest"
    "384c3bc9a0c071a1acc4a1ba651f98cb" (Digest.to_hex crash)

(* [zero_nt] is [write_nt] of zeros: the same bytes, cache, clock, stats,
   recorded events and store-time fault draws. *)
let test_zero_nt_matches_write_nt () =
  Testkit.run_sim (fun engine ->
      let size = paged_config.Config.nvmm_size in
      let device () =
        let stats = Stats.create () in
        let d = Device.create engine stats paged_config in
        Device.poke d ~addr:0 ~src:(Testkit.pattern_bytes ~seed:5 size) ~off:0
          ~len:size;
        Device.enable_recording d;
        Device.write_cached d ~cat ~addr:100
          ~src:(Testkit.pattern_bytes ~seed:6 700)
          ~off:0 ~len:700;
        Device.set_fault_model d
          (Some (Fault.create ~poison_rate:0.3 ~seed:7L ()));
        (d, stats)
      in
      let a, sa = device () in
      let b, sb = device () in
      let elapsed f =
        let t0 = Proc.now () in
        f ();
        Int64.sub (Proc.now ()) t0
      in
      List.iter
        (fun (addr, len) ->
          let what s = Fmt.str "zeros at [%d, +%d): %s" addr len s in
          let ta =
            elapsed (fun () ->
                Device.write_nt a ~cat ~addr ~src:(Bytes.make len '\000')
                  ~off:0 ~len)
          in
          let tb = elapsed (fun () -> Device.zero_nt b ~cat ~addr ~len) in
          check_i64 (what "clock") ta tb;
          check_i64 (what "charged") (Stats.time sa cat) (Stats.time sb cat);
          check_i64 (what "bytes written") (Stats.nvmm_bytes_written sa)
            (Stats.nvmm_bytes_written sb);
          Testkit.check_bytes (what "coherent view")
            (Device.peek a ~addr:0 ~len:size)
            (Device.peek b ~addr:0 ~len:size);
          Testkit.check_bytes (what "medium")
            (Device.peek_persistent a ~addr:0 ~len:size)
            (Device.peek_persistent b ~addr:0 ~len:size);
          check_int (what "dirty lines") (Device.dirty_cachelines a)
            (Device.dirty_cachelines b);
          check_bool (what "recorded events") true
            (Device.recorded_events a = Device.recorded_events b);
          check_int (what "undecided lines") (Device.pending_choice_lines a)
            (Device.pending_choice_lines b);
          check_bool (what "poisoned lines") true
            (Device.verify_range a ~addr:0 ~len:size
            = Device.verify_range b ~addr:0 ~len:size))
        [ (0, 256); (10, 50); (200, 600); (64, 128); (1000, 1); (3000, 1096) ])

(* --- blockdev --- *)

let test_blockdev_roundtrip () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let bdev = Blockdev.create d in
      let block = Testkit.pattern_bytes ~seed:9 4096 in
      Blockdev.write_block bdev ~cat 5 ~src:block ~off:0;
      let back = Bytes.create 4096 in
      Blockdev.read_block bdev ~cat 5 ~into:back ~off:0;
      Testkit.check_bytes "block round trip" block back;
      check_int "write requests" 1 (Stats.block_write_requests stats);
      check_int "read requests" 1 (Stats.block_read_requests stats))

let test_blockdev_overhead_charged () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let bdev = Blockdev.create d in
      let block = Bytes.make 4096 'x' in
      Blockdev.write_block bdev ~cat 0 ~src:block ~off:0;
      Blockdev.read_block bdev ~cat 0 ~into:block ~off:0);
  (* 2 requests x 8000 ns block layer overhead *)
  check_i64 "block layer overhead" 16_000L (Stats.time stats Stats.Block_layer)

let () =
  Alcotest.run "nvmm"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "nw slots sweep" `Quick test_nw_slots_sweep;
        ] );
      ( "device",
        [
          Alcotest.test_case "nt write round trip" `Quick
            test_write_nt_read_back;
          Alcotest.test_case "cached write coherence" `Quick
            test_cached_write_visible_before_flush;
          Alcotest.test_case "crash drops unflushed" `Quick
            test_crash_drops_unflushed;
          Alcotest.test_case "nt write survives crash" `Quick
            test_write_nt_survives_crash;
          Alcotest.test_case "nt invalidates overlay" `Quick
            test_write_nt_invalidates_overlay;
          Alcotest.test_case "partial nt merges overlay" `Quick
            test_write_nt_partial_line_merges_overlay;
          Alcotest.test_case "dirty line tracking" `Quick
            test_dirty_line_tracking;
          Alcotest.test_case "bounds checking" `Quick test_bounds_checking;
          Alcotest.test_case "mkfs residency" `Quick test_mkfs_residency;
          Alcotest.test_case "fill pages" `Quick test_fill_pages;
          Alcotest.test_case "file footprint" `Quick test_file_footprint;
          Alcotest.test_case "pinned image digest" `Quick test_pinned_digest;
          Alcotest.test_case "zero_nt matches write_nt" `Quick
            test_zero_nt_matches_write_nt;
          Alcotest.test_case "snapshot shares pages" `Quick
            test_snapshot_shares_pages;
          Alcotest.test_case "store and flush allocate nothing" `Quick
            test_store_and_flush_no_alloc;
          Alcotest.test_case "recycling spares held lines" `Quick
            test_recycling_spares_held_lines;
        ]
        @ Testkit.qcheck_cases [ medium_matches_flat_prop ] );
      ( "timing",
        [
          Alcotest.test_case "nt write cost" `Quick test_write_nt_timing;
          Alcotest.test_case "bandwidth throttling" `Quick
            test_bandwidth_throttling;
          Alcotest.test_case "clflush dirty only" `Quick
            test_clflush_only_pays_for_dirty;
          Alcotest.test_case "read cost" `Quick test_read_timing;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "basic" `Quick test_allocator_basic;
          Alcotest.test_case "double free" `Quick test_allocator_double_free;
        ]
        @ Testkit.qcheck_cases [ allocator_no_double_alloc_prop ] );
      ( "blockdev",
        [
          Alcotest.test_case "round trip" `Quick test_blockdev_roundtrip;
          Alcotest.test_case "overhead charged" `Quick
            test_blockdev_overhead_charged;
        ] );
    ]
