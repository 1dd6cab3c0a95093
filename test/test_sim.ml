(* Tests for the discrete-event simulation engine and its primitives. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Resource = Hinfs_sim.Resource
module Condvar = Hinfs_sim.Condvar
module Rwlock = Hinfs_sim.Rwlock
module Rng = Hinfs_sim.Rng
module Zipf = Hinfs_sim.Zipf
module Heap = Hinfs_sim.Heap

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* --- heap --- *)

let test_heap_order () =
  let h = Heap.create () in
  let seq = ref 0 in
  let add time payload =
    ignore (Heap.add h ~time ~seq:!seq payload);
    incr seq
  in
  add 30L "c";
  add 10L "a";
  add 20L "b";
  add 10L "a2";
  let pop () =
    match Heap.pop h with
    | Some { Heap.payload; _ } -> payload
    | None -> Alcotest.fail "heap empty"
  in
  check_int "length" 4 (Heap.length h);
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "fifo at same time" "a2" (pop ());
  Alcotest.(check string) "then b" "b" (pop ());
  Alcotest.(check string) "then c" "c" (pop ());
  check_bool "empty" true (Heap.is_empty h)

let test_heap_random () =
  let h = Heap.create () in
  let rng = Rng.create ~seed:42L in
  let n = 1000 in
  for i = 0 to n - 1 do
    ignore (Heap.add h ~time:(Int64.of_int (Rng.int rng 100)) ~seq:i i)
  done;
  let prev = ref (-1L, -1) in
  for _ = 1 to n do
    match Heap.pop h with
    | None -> Alcotest.fail "heap drained early"
    | Some { Heap.time; seq; _ } ->
      let pt, ps = !prev in
      check_bool "monotone (time, seq)" true
        (Int64.compare pt time < 0 || (Int64.equal pt time && ps < seq));
      prev := (time, seq)
  done

(* Random add/pop/remove sequences against a sorted-list model. [Remove k]
   names the k-th entry ever added (mod the count), so it also removes
   entries already popped or removed, which must be no-ops. *)
let heap_model_prop =
  QCheck.Test.make ~name:"heap matches sorted-list model" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 40)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let added = ref [] in
      let seq = ref 0 in
      let key (e : int Heap.entry) = (e.Heap.time, e.Heap.seq) in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 ->
            let e = Heap.add h ~time:(Int64.of_int v) ~seq:!seq !seq in
            incr seq;
            added := !added @ [ e ];
            model := List.sort compare (key e :: !model)
          | 1 -> (
            match (Heap.pop h, !model) with
            | None, [] -> ()
            | Some e, k :: rest when key e = k -> model := rest
            | _ -> QCheck.Test.fail_report "pop disagrees with the model")
          | _ ->
            if !added <> [] then begin
              let e = List.nth !added (v mod List.length !added) in
              Heap.remove h e;
              model := List.filter (fun k -> k <> key e) !model
            end)
        ops;
      if Heap.length h <> List.length !model then
        QCheck.Test.fail_reportf "length %d, model %d" (Heap.length h)
          (List.length !model);
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some e -> drain (key e :: acc)
      in
      drain [] = !model)

(* --- engine basics --- *)

let test_delay_advances_clock () =
  let final =
    Testkit.run_sim (fun _engine ->
        Proc.delay 100L;
        Proc.delay 50L;
        Proc.now ())
  in
  check_i64 "clock" 150L final

let test_same_time_fifo () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.spawn engine (fun () -> order := i :: !order)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_spawn_interleaving () =
  let trace = ref [] in
  let record x = trace := x :: !trace in
  Testkit.run_sim (fun _ ->
      Proc.spawn (fun () ->
          record "a0";
          Proc.delay 10L;
          record "a10");
      Proc.spawn (fun () ->
          record "b0";
          Proc.delay 5L;
          record "b5");
      Proc.delay 20L;
      record "main20");
  Alcotest.(check (list string))
    "interleaving by virtual time"
    [ "a0"; "b0"; "b5"; "a10"; "main20" ]
    (List.rev !trace)

let test_exception_propagates () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      Proc.delay 5L;
      failwith "boom");
  Alcotest.check_raises "process exception re-raised" (Failure "boom")
    (fun () -> Engine.run engine)

let test_negative_delay_rejected () =
  let engine = Engine.create () in
  let raised = ref false in
  Engine.spawn engine (fun () ->
      try Proc.delay (-5L)
      with Invalid_argument _ -> raised := true);
  Engine.run engine;
  (* Negative delays are silently clamped by Proc.delay (returns without
     yielding), so no exception is expected from the helper... *)
  check_bool "no exception from Proc.delay" false !raised

(* A delay moves the clock in place only when every queued event is due
   strictly later; one due at exactly the wake-up time was queued first
   and runs first. *)
let test_delay_tie_runs_queued_event_first () =
  let trace = ref [] in
  let record x = trace := (x, Proc.now ()) :: !trace in
  Testkit.run_sim (fun engine ->
      ignore (Engine.timer engine 10L (fun () -> record "event"));
      Proc.delay 9L;
      check_int "in place: the event is still the only one queued" 1
        (Engine.pending engine);
      record "fiber9";
      Proc.delay 1L;
      record "fiber10");
  Alcotest.(check (list (pair string int64)))
    "the tied event runs before the fiber resumes"
    [ ("fiber9", 9L); ("event", 10L); ("fiber10", 10L) ]
    (List.rev !trace)

let test_lone_fiber_delays_in_place () =
  let engine = Engine.create () in
  let switches = ref 0 in
  Engine.set_proc_hooks engine
    ~on_spawn:(fun _ _ -> ())
    ~on_switch:(fun _ -> incr switches);
  let final = ref 0L in
  Engine.spawn engine (fun () ->
      Proc.delay 100L;
      Proc.delay 20L;
      Proc.delay 3L;
      final := Proc.now ());
  Engine.run engine;
  check_i64 "clock" 123L !final;
  check_i64 "engine clock" 123L (Engine.now engine);
  check_int "one switch, into the fiber; none per delay" 1 !switches

(* [Proc.now] and [Proc.delay] act on the innermost run's engine; the
   outer one is current again once the inner run returns or raises. *)
let test_nested_run_clock () =
  let inner_now = ref [] in
  let outer_now = ref [] in
  Testkit.run_sim (fun _ ->
      Proc.delay 100L;
      let inner = Engine.create () in
      Engine.spawn inner (fun () ->
          Proc.delay 7L;
          inner_now := Proc.now () :: !inner_now);
      Engine.run inner;
      outer_now := Proc.now () :: !outer_now;
      let failing = Engine.create () in
      Engine.spawn failing (fun () ->
          Proc.delay 3L;
          inner_now := Proc.now () :: !inner_now;
          failwith "inner");
      (try Engine.run failing with Failure _ -> ());
      outer_now := Proc.now () :: !outer_now;
      Proc.delay 1L;
      outer_now := Proc.now () :: !outer_now);
  Alcotest.(check (list int64)) "inner clocks" [ 7L; 3L ] (List.rev !inner_now);
  Alcotest.(check (list int64))
    "outer clock after each inner run" [ 100L; 100L; 101L ]
    (List.rev !outer_now)

let test_outside_run_fails () =
  let fails f = match f () with _ -> false | exception _ -> true in
  check_bool "now before any run" true (fails Proc.now);
  check_bool "delay before any run" true (fails (fun () -> Proc.delay 5L));
  Testkit.run_sim (fun _ -> Proc.delay 5L);
  check_bool "now after a run" true (fails Proc.now);
  check_bool "delay after a run" true (fails (fun () -> Proc.delay 5L))

(* --- resources --- *)

let test_resource_limits_concurrency () =
  let peak = ref 0 in
  let active = ref 0 in
  Testkit.run_sim (fun engine ->
      let r = Resource.create ~name:"r" ~capacity:3 in
      for _ = 1 to 10 do
        Proc.spawn (fun () ->
            Resource.with_resource r 1 (fun () ->
                incr active;
                peak := max !peak !active;
                Proc.delay 100L;
                decr active))
      done;
      ignore engine);
  check_int "peak concurrency bounded by capacity" 3 !peak

let test_resource_fifo () =
  let order = ref [] in
  Testkit.run_sim (fun _ ->
      let r = Resource.create ~name:"r" ~capacity:1 in
      for i = 1 to 4 do
        Proc.spawn (fun () ->
            Resource.with_resource r 1 (fun () ->
                order := i :: !order;
                Proc.delay 10L))
      done);
  Alcotest.(check (list int)) "FIFO grants" [ 1; 2; 3; 4 ] (List.rev !order)

let test_resource_bandwidth_timing () =
  (* 2 slots, 3 jobs of 100ns each: third job starts at t=100. *)
  let finish_times = ref [] in
  Testkit.run_sim (fun _ ->
      let r = Resource.create ~name:"r" ~capacity:2 in
      for _ = 1 to 3 do
        Proc.spawn (fun () ->
            Resource.with_resource r 1 (fun () -> Proc.delay 100L);
            finish_times := Proc.now () :: !finish_times)
      done);
  Alcotest.(check (list int64))
    "finish times" [ 100L; 100L; 200L ]
    (List.sort Int64.compare !finish_times)

let test_resource_large_request_not_starved () =
  let order = ref [] in
  Testkit.run_sim (fun _ ->
      let r = Resource.create ~name:"r" ~capacity:2 in
      Proc.spawn (fun () ->
          Resource.with_resource r 2 (fun () ->
              order := "big1" :: !order;
              Proc.delay 10L));
      Proc.spawn (fun () ->
          Resource.with_resource r 2 (fun () ->
              order := "big2" :: !order;
              Proc.delay 10L));
      Proc.spawn (fun () ->
          Resource.with_resource r 1 (fun () ->
              order := "small" :: !order;
              Proc.delay 10L)));
  Alcotest.(check (list string))
    "big request granted before later small one"
    [ "big1"; "big2"; "small" ]
    (List.rev !order)

let test_try_acquire () =
  Testkit.run_sim (fun _ ->
      let r = Resource.create ~name:"r" ~capacity:2 in
      Alcotest.(check bool) "first" true (Resource.try_acquire r 2);
      Alcotest.(check bool) "exhausted" false (Resource.try_acquire r 1);
      Resource.release r 2;
      Alcotest.(check bool) "after release" true (Resource.try_acquire r 1))

(* --- condition variables --- *)

let test_condvar_signal () =
  let woken = ref (-1L) in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      Proc.spawn (fun () ->
          Condvar.wait c;
          woken := Proc.now ());
      Proc.delay 50L;
      ignore (Condvar.signal c));
  check_i64 "woken at signal time" 50L !woken

let test_condvar_timeout () =
  let outcome = ref Condvar.Signaled in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      outcome := Condvar.wait_timeout c ~timeout:30L;
      check_i64 "timed out at deadline" 30L (Proc.now ()));
  check_bool "timeout outcome" true (!outcome = Condvar.Timed_out)

let test_condvar_signal_beats_timeout () =
  let outcome = ref Condvar.Timed_out in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      Proc.spawn (fun () ->
          Proc.delay 10L;
          ignore (Condvar.signal c));
      outcome := Condvar.wait_timeout c ~timeout:1000L;
      check_i64 "woken at signal" 10L (Proc.now ()));
  check_bool "signaled" true (!outcome = Condvar.Signaled)

let test_condvar_broadcast () =
  let woken = ref 0 in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      for _ = 1 to 5 do
        Proc.spawn (fun () ->
            Condvar.wait c;
            incr woken)
      done;
      Proc.delay 10L;
      let n = Condvar.broadcast c in
      check_int "broadcast count" 5 n);
  check_int "all woken" 5 !woken

let test_condvar_timeout_then_signal_no_double_wake () =
  (* A waiter that timed out must not also consume a later signal. *)
  let second_woken = ref false in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      Proc.spawn (fun () -> ignore (Condvar.wait_timeout c ~timeout:5L));
      Proc.spawn (fun () ->
          Condvar.wait c;
          second_woken := true);
      Proc.delay 50L;
      ignore (Condvar.signal c));
  check_bool "signal reached the live waiter" true !second_woken

(* A signalled timed wait cancels its timer: nothing stays queued, and the
   engine drains at the signal, not at the dead timer's deadline. *)
let test_condvar_signal_cancels_timer () =
  let engine = Engine.create () in
  let c = Condvar.create engine in
  let pending = ref (-1) in
  Engine.spawn engine (fun () ->
      ignore (Condvar.wait_timeout c ~timeout:1_000_000L);
      pending := Engine.pending engine);
  Engine.spawn engine (fun () ->
      Proc.delay 10L;
      ignore (Condvar.signal c));
  Engine.run engine;
  check_int "no event queued after the wake" 0 !pending;
  check_i64 "drained at the signal" 10L (Engine.now engine)

(* Timeouts on a condvar nobody signals leave no wakers behind. *)
let test_condvar_timeouts_drop_wakers () =
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      for _ = 1 to 100 do
        ignore (Condvar.wait_timeout c ~timeout:5L)
      done;
      check_int "live waiters" 0 (Condvar.waiting c);
      check_bool "fired wakers dropped" true (Condvar.queued c <= 1))

(* A soak run cut short by a process blocked forever must fail with its
   seed, whether the blocked process is the main one or a child. *)
let test_condvar_blocked_soak_run_fails () =
  let soak = Testkit.Soak.create "blocked" ~seed:99L in
  let fails_with_seed name f =
    match Testkit.Soak.run soak f with
    | () -> Alcotest.failf "%s: blocked run passed" name
    | exception Failure msg ->
      check_bool (name ^ " names the seed") true
        (String.starts_with ~prefix:"[seed 99] " msg)
  in
  fails_with_seed "main blocked" (fun engine ->
      Condvar.wait (Condvar.create engine));
  fails_with_seed "child blocked" (fun engine ->
      let c = Condvar.create engine in
      Proc.spawn (fun () -> Condvar.wait c))

(* --- rwlock --- *)

let test_rwlock_readers_share () =
  let concurrent = ref 0 in
  let peak = ref 0 in
  Testkit.run_sim (fun _ ->
      let l = Rwlock.create () in
      for _ = 1 to 4 do
        Proc.spawn (fun () ->
            Rwlock.with_read l (fun () ->
                incr concurrent;
                peak := max !peak !concurrent;
                Proc.delay 10L;
                decr concurrent))
      done);
  check_int "readers run concurrently" 4 !peak

let test_rwlock_writer_excludes () =
  let trace = ref [] in
  Testkit.run_sim (fun _ ->
      let l = Rwlock.create () in
      Proc.spawn (fun () ->
          Rwlock.with_write l (fun () ->
              trace := ("w-start", Proc.now ()) :: !trace;
              Proc.delay 100L;
              trace := ("w-end", Proc.now ()) :: !trace));
      Proc.spawn (fun () ->
          Proc.delay 10L;
          Rwlock.with_read l (fun () ->
              trace := ("r", Proc.now ()) :: !trace)));
  let r_time = List.assoc "r" !trace in
  check_i64 "reader waited for writer" 100L r_time

let test_rwlock_writer_not_starved () =
  (* Writer queued behind a reader; a later reader must wait behind the
     writer. *)
  let trace = ref [] in
  Testkit.run_sim (fun _ ->
      let l = Rwlock.create () in
      Proc.spawn (fun () ->
          Rwlock.with_read l (fun () ->
              trace := ("r1", Proc.now ()) :: !trace;
              Proc.delay 50L));
      Proc.spawn (fun () ->
          Proc.delay 10L;
          Rwlock.with_write l (fun () ->
              trace := ("w", Proc.now ()) :: !trace;
              Proc.delay 50L));
      Proc.spawn (fun () ->
          Proc.delay 20L;
          Rwlock.with_read l (fun () -> trace := ("r2", Proc.now ()) :: !trace)));
  let w_time = List.assoc "w" !trace in
  let r2_time = List.assoc "r2" !trace in
  check_i64 "writer ran when r1 released" 50L w_time;
  check_i64 "late reader waited for writer" 100L r2_time

(* --- rng / zipf --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check_bool "in bounds" true (v >= 0 && v < 17);
    let f = Rng.float rng in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let r = Rng.int_in_range rng ~lo:5 ~hi:9 in
    check_bool "range inclusive" true (r >= 5 && r <= 9)
  done

let test_zipf_skew () =
  let rng = Rng.create ~seed:11L in
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let counts = Array.make 1000 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let v = Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 1000);
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 should be far more popular than rank 500. *)
  check_bool "skewed"
    true
    (counts.(0) > 20 * max 1 counts.(500));
  (* Top 10% of ranks should account for the majority of accesses. *)
  let top = Array.sub counts 0 100 |> Array.fold_left ( + ) 0 in
  check_bool "top-heavy" true (float_of_int top /. float_of_int samples > 0.5)

let test_zipf_uniform_theta0 () =
  let rng = Rng.create ~seed:13L in
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      check_bool "roughly uniform" true (c > 3500 && c < 6500))
    counts

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_order;
          Alcotest.test_case "random monotone" `Quick test_heap_random;
        ]
        @ Testkit.qcheck_cases [ heap_model_prop ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances clock" `Quick
            test_delay_advances_clock;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "interleaving" `Quick test_spawn_interleaving;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "negative delay is a no-op" `Quick
            test_negative_delay_rejected;
          Alcotest.test_case "signalled timed wait leaves no event" `Quick
            test_condvar_signal_cancels_timer;
          Alcotest.test_case "delay tie runs queued event first" `Quick
            test_delay_tie_runs_queued_event_first;
          Alcotest.test_case "lone fiber delays in place" `Quick
            test_lone_fiber_delays_in_place;
          Alcotest.test_case "nested run clock" `Quick test_nested_run_clock;
          Alcotest.test_case "now and delay fail outside a run" `Quick
            test_outside_run_fails;
        ] );
      ( "resource",
        [
          Alcotest.test_case "limits concurrency" `Quick
            test_resource_limits_concurrency;
          Alcotest.test_case "FIFO grants" `Quick test_resource_fifo;
          Alcotest.test_case "bandwidth timing" `Quick
            test_resource_bandwidth_timing;
          Alcotest.test_case "no starvation of large requests" `Quick
            test_resource_large_request_not_starved;
          Alcotest.test_case "try_acquire" `Quick test_try_acquire;
        ] );
      ( "condvar",
        [
          Alcotest.test_case "signal" `Quick test_condvar_signal;
          Alcotest.test_case "timeout" `Quick test_condvar_timeout;
          Alcotest.test_case "signal beats timeout" `Quick
            test_condvar_signal_beats_timeout;
          Alcotest.test_case "broadcast" `Quick test_condvar_broadcast;
          Alcotest.test_case "timed-out waiter skipped" `Quick
            test_condvar_timeout_then_signal_no_double_wake;
          Alcotest.test_case "timeouts drop fired wakers" `Quick
            test_condvar_timeouts_drop_wakers;
          Alcotest.test_case "blocked soak run fails" `Quick
            test_condvar_blocked_soak_run_fails;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer excludes" `Quick
            test_rwlock_writer_excludes;
          Alcotest.test_case "writer not starved" `Quick
            test_rwlock_writer_not_starved;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform_theta0;
        ] );
    ]
