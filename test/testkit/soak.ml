(* The soak kit: the mechanics every oracle-checked soak shares — seed,
   failure list, verdict, simulation run, seeded crash point, crash-image
   materialisation and the PMFS image check — so that a soak itself holds
   only its workload, its fault schedule, its oracle and its non-vacuity
   checks. It implements the soak contract of DESIGN.md §5.4: SOAK_SEED
   over a default seed, "[seed N]" on every failure, two same-seed runs
   that must agree, and a failed run when the main process blocks or
   processes remain live. *)

module Engine = Hinfs_sim.Engine
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Pmfs = Hinfs_pmfs.Pmfs
module Fsck = Hinfs_fsck.Fsck
module Obs = Hinfs_obs.Obs
module Crashmc = Hinfs_crashmc.Crashmc
module Scenarios = Hinfs_crashmc.Scenarios

type t = { name : string; seed : int64; mutable failures : string list }

let create name ~seed = { name; seed; failures = [] }

let of_env name ~default =
  let seed =
    match Sys.getenv_opt "SOAK_SEED" with
    | Some s -> Int64.of_string s
    | None -> default
  in
  create name ~seed

let seed t = t.seed

let fail t fmt =
  Fmt.kstr
    (fun s -> t.failures <- Fmt.str "[seed %Ld] %s" t.seed s :: t.failures)
    fmt

let deterministic t what a b =
  if a <> b then fail t "%s is not deterministic for seed %Ld" what t.seed

let verdict t =
  match List.rev t.failures with
  | [] -> Fmt.pr "%s OK@." t.name
  | fs ->
    List.iter (Fmt.epr "%s FAIL: %s@." t.name) fs;
    exit 1

(* One simulation: [f] runs as the main process of a fresh engine. With
   [obs] (what the run is "under", for the failure message), the
   observability sink is installed for the run and its span accounting
   must balance once the engine drains. *)
let run ?obs t f =
  let engine = Engine.create () in
  let sink =
    Option.map
      (fun under ->
        let o = Obs.create engine in
        Obs.install o;
        (under, o))
      obs
  in
  let result = ref None in
  Engine.spawn engine ~name:t.name (fun () -> result := Some (f engine));
  Engine.run engine;
  Option.iter
    (fun (under, o) ->
      if Obs.open_spans o > 0 || Obs.mismatches o > 0 then
        fail t "span accounting broken under %s (%d open, %d mismatched)"
          under (Obs.open_spans o) (Obs.mismatches o);
      Obs.uninstall ())
    sink;
  match (!result, Engine.live_processes engine) with
  | Some r, 0 -> r
  | r, live ->
    Fmt.failwith
      "[seed %Ld] %s: simulation drained with the main process %s and %d \
       process(es) still live"
      t.seed t.name
      (if Option.is_none r then "blocked" else "returned")
      live

(* --- seeded crash point --- *)

type 'a point = {
  device : Device.t;
  snapshot : unit -> 'a;
  mutable fences : int;
  mutable captured : (Device.crash_state * 'a * int) option;
}

(* Arm the recorder and draw a target fence below [fences] from [rng].
   The hook keeps the newest capturable state (one with undecided lines)
   at or before the target, with [snapshot ()] — the caller's oracle as
   it stood — and the fence index. *)
let arm ~label rng device ~fences snapshot =
  Device.enable_recording device;
  let target = Rng.int rng fences in
  let p = { device; snapshot; fences = 0; captured = None } in
  Device.set_on_fence device (fun () ->
      if p.fences <= target && Device.pending_choice_lines device > 0 then
        p.captured <-
          Some
            ( Device.capture_crash_state
                ~label:(Fmt.str "%s-fence-%d" label p.fences)
                device,
              snapshot (),
              p.fences );
      p.fences <- p.fences + 1);
  p

let disarm p =
  Device.disable_recording p.device;
  p.captured

(* A concrete image of [state], one seeded choice per undecided line. *)
let materialize rng state =
  let choice =
    Array.of_list
      (List.map
         (fun (_, c) -> Rng.int rng (Array.length c))
         state.Device.cs_choices)
  in
  Device.materialize_crash_image state ~choice

type 'a crash = { image : Device.image; fence : int option; oracle : 'a }

(* Disarm and crash: the captured state materialised with seeded choices,
   else the medium as it stands, with the oracle snapshot taken now. *)
let crash rng p =
  match disarm p with
  | Some (state, oracle, fence) ->
    { image = materialize rng state; fence = Some fence; oracle }
  | None ->
    { image = Device.snapshot p.device; fence = None; oracle = p.snapshot () }

(* --- PMFS image check --- *)

let check_pmfs t ~what fs =
  let report = Fsck.check_pmfs fs in
  if not (Fsck.ok report) then fail t "%s: %a" what Fsck.pp_report report;
  report

(* Mount a crash image as PMFS (running recovery) and fsck it. [on_device]
   sees the device before the mount. *)
let mount_pmfs ?(on_device = ignore) ?label t engine config image =
  let stats = Stats.create () in
  let d = Device.of_snapshot engine stats config image in
  on_device d;
  let fs = Pmfs.mount d () in
  let what =
    match label with
    | Some l -> Fmt.str "[%s] crash image fails fsck" l
    | None -> "crash image fails fsck"
  in
  (fs, stats, check_pmfs t ~what fs)

(* --- recovered files --- *)

(* Judge a recovered image with crashmc's oracle: each message is a
   failure tagged with [label]. *)
let report t ~label violations =
  List.iter (fun v -> fail t "[%s] %s" label v) violations

(* Read every expected path through the handle [h] and check it. *)
let check_files t ~label h expectations =
  report t ~label
    (Crashmc.check_expectations ~read_file:(Crashmc.read_file h) expectations)

(* --- crashmc gates --- *)

(* Run the crashmc suite at [params] (its seed overridden by SOAK_SEED),
   print the report, apply the caller's budget [gates], require zero
   unexpected violations, every buggy fixture flagged, and a second run
   agreeing exactly. *)
let crashmc name params gates =
  let t = of_env name ~default:params.Crashmc.seed in
  let params = { params with Crashmc.seed = t.seed } in
  let report = Crashmc.run_suite ~params Scenarios.all in
  Fmt.pr "%a@." Crashmc.pp_report report;
  gates t report;
  (match Crashmc.unexpected_violations report with
  | [] -> ()
  | (sc, st, v) :: _ as vs ->
    fail t "%d unexpected violation(s), e.g. [%s/%s] %s" (List.length vs) sc
      st v);
  (match Crashmc.missed_fixtures report with
  | [] -> ()
  | ms -> fail t "buggy fixture(s) not flagged: %s" (String.concat ", " ms));
  let again = Crashmc.run_suite ~params Scenarios.all in
  let counts (r : Crashmc.scenario_result) =
    ( r.sr_states,
      r.sr_images,
      r.sr_recovery_states,
      r.sr_recovery_images,
      r.sr_violations )
  in
  List.iter2
    (fun (a : Crashmc.scenario_result) b ->
      deterministic t ("scenario " ^ a.sr_name) (counts a) (counts b))
    report.results again.results;
  verdict t
