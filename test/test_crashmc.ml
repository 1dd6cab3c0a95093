(* Tests for the persistence-event recorder, crash-image enumeration, and
   the crashmc/fsck stack: torn journal commits replayed from crash images,
   roll-back/roll-forward assertions, and the checker self-test (the
   missing-fence fixture must be flagged). Deterministic seeds only. *)

module Engine = Hinfs_sim.Engine
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Log = Hinfs_journal.Cacheline_log
module Bj = Hinfs_journal.Block_journal
module Blockdev = Hinfs_blockdev.Blockdev
module Crashmc = Hinfs_crashmc.Crashmc
module Scenarios = Hinfs_crashmc.Scenarios

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let cat = Stats.Other

(* Byte addresses on distinct cachelines, away from block 0. *)
let addr_a = 16 * 4096
let addr_b = (16 * 4096) + 64

let write8 d addr v =
  let b = Bytes.make 8 (Char.chr v) in
  Device.write_cached d ~cat ~addr ~src:b ~off:0 ~len:8

(* Enumerate choice vectors of a crash state: exhaustive when small,
   extremes + seeded samples otherwise. *)
let choice_vectors ?(cap = 64) ?(seed = 7L) (state : Device.crash_state) =
  let counts =
    Array.of_list
      (List.map (fun (_, c) -> Array.length c) state.Device.cs_choices)
  in
  let n = Array.length counts in
  let total =
    Array.fold_left (fun acc c -> if acc > cap then acc else acc * c) 1 counts
  in
  if total <= cap then begin
    let vec = Array.make n 0 in
    let acc = ref [] in
    let rec go i =
      if i = n then acc := Array.copy vec :: !acc
      else
        for c = 0 to counts.(i) - 1 do
          vec.(i) <- c;
          go (i + 1)
        done
    in
    go 0;
    !acc
  end
  else begin
    let rng = Rng.create ~seed in
    Array.make n 0
    :: Array.init n (fun i -> counts.(i) - 1)
    :: List.init 14 (fun _ ->
           Array.init n (fun i -> Rng.int rng counts.(i)))
  end

(* --- recorder semantics --- *)

let test_capture_basic () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.enable_recording d;
      write8 d addr_a 0x11;
      write8 d addr_b 0x22;
      let state = Device.capture_crash_state d in
      check_int "two undecided lines" 2 (List.length state.Device.cs_choices);
      check_int "pending_choice_lines agrees" 2 (Device.pending_choice_lines d);
      List.iter
        (fun (_, cands) -> check_int "two candidates" 2 (Array.length cands))
        state.Device.cs_choices;
      (* All four images are distinct and each line is zeros-or-written. *)
      let images =
        List.map
          (fun vec ->
            Bytes.to_string
              (Device.image_to_bytes
                 (Device.materialize_crash_image state ~choice:vec)))
          (choice_vectors state)
      in
      check_int "four images" 4 (List.length images);
      check_int "all distinct" 4
        (List.length (List.sort_uniq compare images));
      List.iter
        (fun img ->
          let a = img.[addr_a] and b = img.[addr_b] in
          check_bool "line a zeros or new" true
            (a = '\x00' || a = '\x11');
          check_bool "line b zeros or new" true
            (b = '\x00' || b = '\x22'))
        images)

let test_fence_collapses () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.enable_recording d;
      write8 d addr_a 0x33;
      Device.clflush d ~cat ~addr:addr_a ~len:8;
      Device.mfence d ~cat;
      check_int "nothing undecided after flush+fence" 0
        (Device.pending_choice_lines d);
      let state = Device.capture_crash_state d in
      check_int "no choices" 0 (List.length state.Device.cs_choices);
      check_bool "medium has the data" true
        (Bytes.get (Device.image_to_bytes state.Device.cs_image) addr_a
        = '\x33'))

let test_unfenced_flush_undecided () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.enable_recording d;
      write8 d addr_a 0x44;
      Device.clflush d ~cat ~addr:addr_a ~len:8;
      (* flushed but NOT fenced: old and new both legal *)
      let state = Device.capture_crash_state d in
      check_int "one undecided line" 1 (List.length state.Device.cs_choices);
      let _, cands = List.hd state.Device.cs_choices in
      check_int "old and new" 2 (Array.length cands);
      check_bool "candidate 0 is the old (guaranteed) content" true
        (Bytes.get cands.(0) 0 = '\x00');
      check_bool "candidate 1 is the flushed content" true
        (Bytes.get cands.(1) 0 = '\x44'))

let test_epoch_snapshot () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.enable_recording d;
      write8 d addr_a 0x55;
      Device.mfence d ~cat;
      (* same line, next epoch, still never flushed *)
      write8 d addr_a 0x66;
      let state = Device.capture_crash_state d in
      check_int "one undecided line" 1 (List.length state.Device.cs_choices);
      let _, cands = List.hd state.Device.cs_choices in
      (* zeros (guaranteed), the epoch-0 value (evictable), the live value *)
      check_int "three candidates" 3 (Array.length cands);
      let heads = Array.map (fun c -> Bytes.get c 0) cands in
      check_bool "0x00/0x55/0x66" true
        (heads = [| '\x00'; '\x55'; '\x66' |]))

(* Versions of one line in one epoch are candidates in store order. *)
let test_candidates_oldest_first () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.enable_recording d;
      write8 d addr_a 0x11;
      Device.clflush d ~cat ~addr:addr_a ~len:8;
      write8 d addr_a 0x22;
      Device.clflush d ~cat ~addr:addr_a ~len:8;
      write8 d addr_a 0x33;
      let state = Device.capture_crash_state d in
      let _, cands = List.hd state.Device.cs_choices in
      let heads = Array.map (fun c -> Bytes.get c 0) cands in
      check_bool "0x00/0x11/0x22/0x33" true
        (heads = [| '\x00'; '\x11'; '\x22'; '\x33' |]))

let test_nt_store_undecided_until_fence () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.enable_recording d;
      let src = Bytes.make 64 '\x77' in
      Device.write_nt d ~cat ~addr:addr_a ~src ~off:0 ~len:64;
      let state = Device.capture_crash_state d in
      check_int "NT line undecided before fence" 1
        (List.length state.Device.cs_choices);
      Device.mfence d ~cat;
      check_int "guaranteed after fence" 0 (Device.pending_choice_lines d))

(* --- satellite: dirty_line_addrs + shared flush path --- *)

let test_dirty_line_addrs_and_flush_all () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      write8 d addr_b 0x99;
      write8 d addr_a 0x88;
      Alcotest.(check (list int))
        "sorted line addresses" [ addr_a; addr_b ] (Device.dirty_line_addrs d);
      Device.enable_recording d;
      (* enable_recording flushed everything through the clflush path *)
      check_int "clean after enable" 0 (Device.dirty_cachelines d);
      check_bool "persisted a" true
        (Bytes.get (Device.peek_persistent d ~addr:addr_a ~len:1) 0 = '\x88');
      write8 d addr_a 0xAA;
      Device.flush_all_untimed d;
      check_int "flush_all leaves nothing undecided" 0
        (Device.pending_choice_lines d);
      check_bool "flush_all persisted through the shared path" true
        (Bytes.get (Device.peek_persistent d ~addr:addr_a ~len:1) 0 = '\xAA'))

(* --- satellite: per-category clflush/mfence counters --- *)

let test_flush_counters () =
  Testkit.run_sim (fun engine ->
      let stats = Stats.create () in
      let d = Testkit.make_device ~stats engine in
      write8 d addr_a 0x10;
      Device.clflush d ~cat:Stats.Journal ~addr:addr_a ~len:8;
      (* clean line: issued but not dirty *)
      Device.clflush d ~cat:Stats.Journal ~addr:addr_a ~len:8;
      Device.mfence d ~cat:Stats.Journal;
      Device.mfence d ~cat:Stats.Other;
      check_int "clflush issued (journal)" 2
        (Stats.clflush_issued stats Stats.Journal);
      check_int "clflush dirty (journal)" 1
        (Stats.clflush_dirty stats Stats.Journal);
      check_int "mfences (journal)" 1 (Stats.mfences stats Stats.Journal);
      check_int "total mfences" 2 (Stats.total_mfences stats))

(* --- torn cacheline-log commits over crash images --- *)

let journal_first = 1
let journal_blocks = 8

let recover_image config image =
  let engine = Engine.create () in
  let d = Device.of_snapshot engine (Stats.create ()) config image in
  ignore (Log.recover d ~first_block:journal_first ~blocks:journal_blocks ());
  d

let test_torn_cacheline_log_commit () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let log = Log.create d ~first_block:journal_first ~blocks:journal_blocks in
      let old = Testkit.pattern_bytes ~seed:3 32 in
      let fresh = Testkit.pattern_bytes ~seed:4 32 in
      Device.poke d ~addr:addr_a ~src:old ~off:0 ~len:32;
      Device.enable_recording d;
      let txn = Log.begin_txn log in
      Log.log log txn ~addr:addr_a ~len:32;
      Device.write_cached d ~cat ~addr:addr_a ~src:fresh ~off:0 ~len:32;
      Device.clflush d ~cat ~addr:addr_a ~len:32;
      (* mid-commit: undo entries are fenced, target flush is not *)
      let mid = Device.capture_crash_state ~label:"mid" d in
      Log.commit log txn;
      let final = Device.capture_crash_state ~label:"final" d in
      let config = Device.config d in
      (* Every mid-commit image must roll back to the old contents. *)
      let n_mid = ref 0 in
      List.iter
        (fun vec ->
          incr n_mid;
          let img = Device.materialize_crash_image mid ~choice:vec in
          let d2 = recover_image config img in
          Testkit.check_bytes "uncommitted rolls back" old
            (Device.peek_persistent d2 ~addr:addr_a ~len:32))
        (choice_vectors mid);
      check_bool "mid-commit explored several images" true (!n_mid >= 2);
      (* Every post-commit image must keep the new contents (and recovery
         must find nothing to undo). *)
      List.iter
        (fun vec ->
          let img = Device.materialize_crash_image final ~choice:vec in
          let d2 = recover_image config img in
          Testkit.check_bytes "committed stays" fresh
            (Device.peek_persistent d2 ~addr:addr_a ~len:32);
          check_int "no stale entries" 0
            (Log.count_valid_entries d2 ~first_block:journal_first
               ~blocks:journal_blocks))
        (choice_vectors final))

(* --- torn block-journal commits over crash images --- *)

let test_torn_block_journal_commit () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let bj = Bj.create bdev ~first_block:journal_first ~blocks:journal_blocks in
      let home = 16 in
      let old = Testkit.pattern_bytes ~seed:5 4096 in
      let fresh = Testkit.pattern_bytes ~seed:6 4096 in
      Blockdev.poke_block bdev home ~src:old ~off:0;
      Device.enable_recording d;
      (* capture a crash state at every ordering point of the commit *)
      let states = ref [] in
      Device.set_on_fence d (fun () ->
          if Device.pending_choice_lines d > 0 then
            states := Device.capture_crash_state d :: !states);
      Bj.journal_metadata bj ~block:home ~content:(fun () -> fresh);
      Bj.commit bj;
      let final = Device.capture_crash_state ~label:"final" d in
      let config = Device.config d in
      let old_s = Bytes.to_string old and fresh_s = Bytes.to_string fresh in
      let checked = ref 0 in
      List.iter
        (fun state ->
          List.iter
            (fun vec ->
              incr checked;
              let img = Device.materialize_crash_image state ~choice:vec in
              let engine2 = Engine.create () in
              let d2 = Device.of_snapshot engine2 (Stats.create ()) config img in
              let bdev2 = Blockdev.create d2 in
              ignore
                (Bj.recover bdev2 ~first_block:journal_first
                   ~blocks:journal_blocks);
              let got = Bytes.to_string (Blockdev.peek_block bdev2 home) in
              check_bool "home block old or new, never torn" true
                (got = old_s || got = fresh_s))
            (choice_vectors state))
        (List.rev !states);
      check_bool "explored mid-commit images" true (!checked >= 10);
      (* the committed transaction rolls forward on the final image *)
      let img =
        Device.materialize_crash_image final
          ~choice:(Array.make (List.length final.Device.cs_choices) 0)
      in
      let engine2 = Engine.create () in
      let d2 = Device.of_snapshot engine2 (Stats.create ()) config img in
      let bdev2 = Blockdev.create d2 in
      ignore (Bj.recover bdev2 ~first_block:journal_first ~blocks:journal_blocks);
      Testkit.check_bytes "committed content after replay" fresh
        (Blockdev.peek_block bdev2 home))

(* --- checker self-test: fixtures --- *)

let quick_params =
  {
    Crashmc.seed = 11L;
    k_exhaustive = 8;
    samples_per_state = 12;
    max_images_per_state = 48;
    max_states = 12;
    recrash_states = 3;
    recrash_samples = 2;
    recrash_checks = 16;
  }

let test_missing_fence_flagged () =
  let r =
    Crashmc.run_scenario ~params:quick_params Scenarios.fixture_missing_fence
  in
  check_bool "missing-fence fixture flagged" true (r.Crashmc.sr_violations <> []);
  check_bool "images explored" true (r.Crashmc.sr_images > 1)

let test_correct_fence_clean () =
  let r =
    Crashmc.run_scenario ~params:quick_params Scenarios.fixture_correct_fence
  in
  Alcotest.(check (list (pair string string)))
    "correct protocol has no violations" [] r.Crashmc.sr_violations

let test_deterministic () =
  let a =
    Crashmc.run_scenario ~params:quick_params Scenarios.fixture_missing_fence
  in
  let b =
    Crashmc.run_scenario ~params:quick_params Scenarios.fixture_missing_fence
  in
  check_int "same states" a.Crashmc.sr_states b.Crashmc.sr_states;
  check_int "same images" a.Crashmc.sr_images b.Crashmc.sr_images;
  check_bool "same violations" true
    (a.Crashmc.sr_violations = b.Crashmc.sr_violations)

(* --- the durability oracle --- *)

(* Every expectation case and the rename check against a fixed table of
   files: exact matches pass, each kind of mismatch is flagged once, and a
   read that raises is reported as such. *)
let test_expectations () =
  let files = [ ("/a", "abcd"); ("/b", "abcd") ] in
  let read path =
    if path = "/boom" then failwith "disk on fire"
    else List.assoc_opt path files
  in
  let flagged what exps =
    check_int what 1
      (List.length (Crashmc.check_expectations ~read_file:read exps))
  in
  let open Crashmc in
  Alcotest.(check (list string))
    "exact matches pass" []
    (check_expectations ~read_file:read
       [
         ("/a", Exactly (Content "abcd"));
         ("/x", Exactly Absent);
         ("/x", Either (Absent, Content "abcd"));
         ("/a", Either (Absent, Content "abcd"));
         ("/a", Exactly (Sized 4));
         ("/a", Exactly (Holds [ (1, "bc"); (3, "d") ]));
         ("/a", Exactly (Holds []));
       ]
    @ exactly_one ~read_file:read ("/a", "/x") (Content "abcd")
    @ exactly_one ~read_file:read ("/x", "/a") (Content "abcd"));
  flagged "present, expected absent" [ ("/a", Exactly Absent) ];
  flagged "absent, expected present" [ ("/x", Exactly (Content "")) ];
  flagged "torn content" [ ("/a", Exactly (Content "abce")) ];
  flagged "neither side of an in-flight op"
    [ ("/a", Either (Absent, Content "abc")) ];
  flagged "wrong size" [ ("/a", Exactly (Sized 5)) ];
  flagged "absent, expected a size" [ ("/x", Exactly (Sized 0)) ];
  flagged "torn range" [ ("/a", Exactly (Holds [ (1, "bc"); (2, "xd") ])) ];
  flagged "range past EOF" [ ("/a", Exactly (Holds [ (3, "de") ])) ];
  flagged "absent, expected ranges" [ ("/x", Exactly (Holds [])) ];
  let one what (a, b) expect =
    check_int what 1 (List.length (exactly_one ~read_file:read (a, b) expect))
  in
  one "file at both names" ("/a", "/b") (Content "abcd");
  one "file at neither name" ("/x", "/y") (Content "abcd");
  one "renamed file torn" ("/x", "/a") (Content "abce");
  one "rename check with a failed read" ("/boom", "/a") (Content "abcd");
  match check_expectations ~read_file:read [ ("/boom", Exactly Absent) ] with
  | [ msg ] ->
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    check_bool "failed read names the exception" true (contains "disk on fire");
    check_bool "failed read is not a file size" false (contains "-byte")
  | vs -> Alcotest.failf "failed read: %d message(s)" (List.length vs)

(* read_file through a Vfs handle: whole contents, None for a missing name
   or a path through a file. *)
let test_read_file () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Hinfs_pmfs.Pmfs.handle fs in
      let data = Testkit.pattern_bytes ~seed:9 9000 in
      let fd = h.open_ "/f" Hinfs_vfs.Types.creat in
      ignore (h.write fd data 9000);
      h.close fd;
      Alcotest.(check (option string))
        "whole file" (Some (Bytes.to_string data)) (Crashmc.read_file h "/f");
      Alcotest.(check (option string))
        "missing" None (Crashmc.read_file h "/g");
      Alcotest.(check (option string))
        "through a file" None (Crashmc.read_file h "/f/x"))

(* One real scenario end to end (the smoke binary runs the whole suite). *)
let test_pmfs_torn_txn_scenario () =
  let r = Crashmc.run_scenario ~params:quick_params Scenarios.pmfs_torn_txn in
  Alcotest.(check (list (pair string string)))
    "pmfs torn txn: recovery holds on every image" [] r.Crashmc.sr_violations;
  check_bool "explored images" true (r.Crashmc.sr_images >= 4)

let () =
  Alcotest.run "crashmc"
    [
      ( "recorder",
        [
          Alcotest.test_case "capture basic" `Quick test_capture_basic;
          Alcotest.test_case "fence collapses" `Quick test_fence_collapses;
          Alcotest.test_case "unfenced flush undecided" `Quick
            test_unfenced_flush_undecided;
          Alcotest.test_case "epoch snapshot" `Quick test_epoch_snapshot;
          Alcotest.test_case "candidates oldest first" `Quick
            test_candidates_oldest_first;
          Alcotest.test_case "nt store undecided until fence" `Quick
            test_nt_store_undecided_until_fence;
          Alcotest.test_case "dirty_line_addrs + flush_all path" `Quick
            test_dirty_line_addrs_and_flush_all;
          Alcotest.test_case "flush counters" `Quick test_flush_counters;
        ] );
      ( "torn-commits",
        [
          Alcotest.test_case "cacheline log" `Quick
            test_torn_cacheline_log_commit;
          Alcotest.test_case "block journal" `Quick
            test_torn_block_journal_commit;
        ] );
      ( "checker",
        [
          Alcotest.test_case "missing fence flagged" `Quick
            test_missing_fence_flagged;
          Alcotest.test_case "correct fence clean" `Quick
            test_correct_fence_clean;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "pmfs torn txn scenario" `Quick
            test_pmfs_torn_txn_scenario;
          Alcotest.test_case "expectations" `Quick test_expectations;
          Alcotest.test_case "read_file" `Quick test_read_file;
        ] );
    ]
