(* Crash-consistency model checker over the NVMM device model.

   A scenario runs a workload on a recording device (see Device's
   persistence-event recorder). Crash states are captured automatically at
   every mfence — before the fence takes effect, so the to-be-ordered line
   versions are still undecided — plus at explicit checkpoints and at the
   end of the run. For each captured state, crashmc enumerates concrete
   crash images: exhaustively when the number of undecided lines is at most
   [k_exhaustive] (and the product of per-line candidate counts fits the
   image budget), otherwise by seeded random sampling with Hinfs_sim.Rng,
   always including the two extreme images (nothing extra persisted /
   everything persisted). Each image is materialised into a fresh device
   with Device.of_snapshot and handed to the scenario's [verify] function,
   which runs mount-time recovery, fsck invariants and the durability
   oracle against the expectations the scenario had registered at that
   point.

   Everything is deterministic given [params.seed]: the simulation itself
   is deterministic, captured states are keyed by fence order, and the
   sampler is the only consumer of the Rng. *)

module Engine = Hinfs_sim.Engine
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno

(* --- durability oracle expectations --- *)

type file_expect =
  | Absent
  | Content of string
  | Sized of int
      (** present with this size; its bytes are not promised (a failed
          write may have torn the range it covered) *)
  | Holds of (int * string) list
      (** present, with these bytes at these offsets; the rest of the
          file is not promised *)

type expectation =
  | Exactly of file_expect
  | Either of file_expect * file_expect
      (** in-flight operation: old or new, never anything else (torn) *)

let pp_file_expect ppf = function
  | Absent -> Fmt.string ppf "absent"
  | Content s -> Fmt.pf ppf "%d-byte content" (String.length s)
  | Sized n -> Fmt.pf ppf "%d bytes" n
  | Holds ranges -> Fmt.pf ppf "%d promised range(s)" (List.length ranges)

let pp_expectation ppf = function
  | Exactly e -> pp_file_expect ppf e
  | Either (a, b) ->
    Fmt.pf ppf "either %a or %a" pp_file_expect a pp_file_expect b

(* A whole file read through any kind's Vfs handle; [None] when the path
   does not name a file. *)
let read_file (h : Vfs.handle) path =
  match h.open_ path Types.rdonly with
  | exception Errno.Fs_error ((ENOENT | ENOTDIR), _) -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> h.close fd)
      (fun () ->
        let buf = Bytes.create (h.fstat fd).size in
        let n = h.pread fd ~off:0 buf (Bytes.length buf) in
        Some (Bytes.sub_string buf 0 n))

(* The first byte of [s] that breaks what [e] promises, if any. *)
let wrong_byte s e =
  let diff ~at b =
    let rec go i =
      if i = String.length b then None
      else if at + i >= String.length s || s.[at + i] <> b.[i] then
        Some (at + i)
      else go (i + 1)
    in
    go 0
  in
  match e with
  | Content c when s <> c ->
    Some (Option.value (diff ~at:0 c) ~default:(String.length c))
  | Holds ranges -> List.find_map (fun (at, b) -> diff ~at b) ranges
  | Content _ | Absent | Sized _ -> None

let matches actual e =
  match (actual, e) with
  | None, Absent -> true
  | Some s, Sized n -> String.length s = n
  | Some s, (Content _ | Holds _) -> wrong_byte s e = None
  | _ -> false

(* One file as the oracle sees it: its contents, or why it could not be
   read. *)
let observe ~read_file path =
  match read_file path with
  | actual -> Ok actual
  | exception e -> Error (Printexc.to_string e)

let pp_observed ppf = function
  | Ok None -> Fmt.string ppf "absent"
  | Ok (Some s) -> Fmt.pf ppf "%d-byte content" (String.length s)
  | Error e -> Fmt.pf ppf "a failed read (%s)" e

let check_observed ~path observed expectation =
  let ok =
    match (observed, expectation) with
    | Error _, _ -> false
    | Ok actual, Exactly e -> matches actual e
    | Ok actual, Either (a, b) -> matches actual a || matches actual b
  in
  if ok then []
  else
    let where =
      match (observed, expectation) with
      | Ok (Some s), Exactly e ->
        Option.fold ~none:"" ~some:(Fmt.str ", wrong from byte %d")
          (wrong_byte s e)
      | _ -> ""
    in
    [
      Fmt.str "durability: %S expected %a, found %a%s" path pp_expectation
        expectation pp_observed observed where;
    ]

(* The oracle of every scenario and soak: read each expected path with
   [read_file] (None = absent, e.g. [read_file h] for a Vfs handle [h])
   and return one message per path that breaks its expectation. *)
let check_expectations ~read_file expectations =
  List.concat_map
    (fun (path, expectation) ->
      check_observed ~path (observe ~read_file path) expectation)
    expectations

(* An in-flight rename of a file holding [expect] from [a] to [b]: at
   every crash image the file is at exactly one of the two names. *)
let exactly_one ~read_file (a, b) expect =
  match (observe ~read_file a, observe ~read_file b) with
  | Ok (Some _), Ok (Some _) ->
    [ Fmt.str "rename: file at both %S and %S" a b ]
  | Ok None, Ok None -> [ Fmt.str "rename: file at neither %S nor %S" a b ]
  | (Error _ as seen), _ | seen, Ok None ->
    check_observed ~path:a seen (Exactly expect)
  | _, seen -> check_observed ~path:b seen (Exactly expect)

(* --- scenarios --- *)

(* Handed to the scenario's [run] function to drive the checker. *)
type ctl = {
  start : unit -> unit;
      (** arm recording + automatic fence captures; call after setup
          (mkfs/mount) so the baseline is the freshly initialised image *)
  checkpoint : string -> unit;  (** capture a crash state here *)
  expect : string -> expectation -> unit;
      (** register/replace the durability expectation for a path *)
  retract : string -> unit;
      (** drop a path's expectation (non-atomic operation in flight) *)
}

type scenario = {
  name : string;
  config : Config.t;
  expect_violation : bool;
      (** checker self-test fixture: the scenario contains a deliberate
          persistency bug and crashmc must flag it *)
  run : Device.t -> ctl -> unit;
  verify : Device.t -> (string * expectation) list -> string list;
      (** mount the crash image, run recovery + fsck + the durability
          oracle; return violations *)
}

type params = {
  seed : int64;
  k_exhaustive : int;  (** exhaustive enumeration when pending lines <= K *)
  samples_per_state : int;  (** sampled images per state beyond K *)
  max_images_per_state : int;  (** exhaustive-product budget per state *)
  max_states : int;  (** captured crash states per scenario (adaptive) *)
  recrash_states : int;
      (** crash states captured *during recovery* per outer image *)
  recrash_samples : int;
      (** nested images per recovery state (incl. the two extremes) *)
  recrash_checks : int;
      (** per-scenario budget of nested re-crash verifications (0 turns
          crash-during-recovery checking off) *)
}

let default_params =
  {
    seed = 42L;
    k_exhaustive = 10;
    samples_per_state = 20;
    max_images_per_state = 64;
    max_states = 20;
    recrash_states = 4;
    recrash_samples = 3;
    recrash_checks = 48;
  }

type scenario_result = {
  sr_name : string;
  sr_expect_violation : bool;
  sr_states : int;  (** crash states captured *)
  sr_images : int;  (** distinct crash images explored *)
  sr_checked : int;  (** image verifications executed *)
  sr_recovery_states : int;
      (** crash states captured during recovery (nested) *)
  sr_recovery_images : int;  (** nested re-crash images verified *)
  sr_violations : (string * string) list;  (** (state label, message) *)
}

(* --- enumeration --- *)

(* All choice vectors of the mixed-radix space [counts] (row-major). *)
let all_vectors counts =
  let n = Array.length counts in
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
  List.rev !acc

let sampled_vectors rng counts ~samples =
  let n = Array.length counts in
  let extremes =
    [ Array.make n 0; Array.init n (fun i -> counts.(i) - 1) ]
  in
  let rec draw k acc =
    if k = 0 then List.rev acc
    else draw (k - 1) (Array.init n (fun i -> Rng.int rng counts.(i)) :: acc)
  in
  extremes @ draw (max 0 (samples - 2)) []

(* Every image of a state when there are at most [k] undecided lines and
   at most [cap] images, else [samples] of them (the two extremes plus
   seeded draws). *)
let vectors_for rng ~k ~cap ~samples (state : Device.crash_state) =
  let counts =
    Array.of_list (List.map (fun (_, c) -> Array.length c) state.cs_choices)
  in
  let n = Array.length counts in
  let total =
    Array.fold_left (fun acc c -> if acc > cap then acc else acc * c) 1 counts
  in
  if n = 0 then [ [||] ]
  else if n <= k && total <= cap then all_vectors counts
  else sampled_vectors rng counts ~samples

(* Content key of one concrete image: the guaranteed medium plus the chosen
   candidate per undecided line. Images identical as byte strings get the
   same key (without hashing the whole medium per image). *)
let image_key ~base_digest (state : Device.crash_state) vec =
  let b = Buffer.create 256 in
  Buffer.add_string b base_digest;
  List.iteri
    (fun i (idx, cands) ->
      Buffer.add_string b (string_of_int idx);
      Buffer.add_char b ':';
      Buffer.add_bytes b cands.(vec.(i));
      Buffer.add_char b ';')
    state.cs_choices;
  Digest.string (Buffer.contents b)

(* Automatic capture at every fence that leaves lines undecided, with
   adaptive thinning: when [max_states] are held, keep every other state
   and double the stride, so long runs still get evenly spread crash
   points. Returns [(arm, capture, states)]: [arm ()] starts recording,
   [capture label] takes one state now (also outside a fence), and
   [states ()] lists them oldest first, each paired with [tag ()] taken
   at the same moment. *)
let fence_captures device ~max_states ~prefix tag =
  let states = ref [] and count = ref 0 in
  let fences = ref 0 and stride = ref 1 in
  let capture label =
    states := (Device.capture_crash_state ~label device, tag ()) :: !states;
    incr count
  in
  let on_fence () =
    incr fences;
    if !fences mod !stride = 0 && Device.pending_choice_lines device > 0
    then begin
      if !count >= max_states then begin
        states := List.filteri (fun i _ -> i mod 2 = 0) !states;
        count := List.length !states;
        stride := !stride * 2
      end;
      capture (Fmt.str "%s-%d" prefix !fences)
    end
  in
  let arm () =
    Device.enable_recording device;
    Device.set_on_fence device on_fence
  in
  (arm, capture, fun () -> List.rev !states)

(* Enumerate, dedupe, materialise: each state's choice vectors are drawn
   from [vectors] before any of its images is checked (a check may draw
   from the same RNG), and every image not seen before is handed to
   [check] while [admit ()] holds. *)
let explore ~vectors ~admit ~check states =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun ((state : Device.crash_state), tag) ->
      let base_digest = Device.image_digest state.cs_image in
      List.iter
        (fun vec ->
          let key = image_key ~base_digest state vec in
          if (not (Hashtbl.mem seen key)) && admit () then begin
            Hashtbl.replace seen key ();
            check state tag (Device.materialize_crash_image state ~choice:vec)
          end)
        (vectors state))
    states

(* A materialised image on a fresh device in a fresh simulation. *)
let image_device scenario image =
  Device.of_snapshot (Engine.create ()) (Stats.create ()) scenario.config image

(* Run [verify] on a device from [image_device]. *)
let verify scenario device expectations =
  let engine = Device.engine device in
  let out = ref [ "verification did not run" ] in
  Engine.spawn engine ~name:"crashmc-verify" (fun () ->
      out :=
        (try scenario.verify device expectations
         with e ->
           [ Fmt.str "verify raised: %s" (Printexc.to_string e) ]));
  (try Engine.run engine
   with e -> out := [ Fmt.str "verify engine: %s" (Printexc.to_string e) ]);
  !out

(* Run [verify] on a materialised image with the persistence recorder armed
   *during recovery*: every fence inside mount-time log recovery,
   superblock-replica repair and scrubbing becomes a nested crash point
   (crash -> partially recover -> crash again). The captured recovery
   states are enumerated like outer states (the two extremes plus seeded
   samples, content-deduped) and each nested image is verified again,
   unrecorded, against the same expectations: recovery must be idempotent
   under a re-crash at any fence epoch. Returns the first-pass violations
   plus any nested ones (labelled), and the nested state/image counts.
   [budget] bounds the nested verifications across a whole scenario. *)
let verify_image_recrash scenario params rng ~budget image expectations =
  let device = image_device scenario image in
  let arm, _, captured =
    fence_captures device ~max_states:params.recrash_states
      ~prefix:"recovery-fence" ignore
  in
  arm ();
  let out = verify scenario device expectations in
  let recovery_states = captured () in
  let nested = ref [] and images = ref 0 in
  explore recovery_states
    ~vectors:(* always sampled *)
      (vectors_for rng ~k:0 ~cap:0 ~samples:params.recrash_samples)
    ~admit:(fun () -> !budget > 0)
    ~check:(fun state () image ->
      decr budget;
      incr images;
      List.iter
        (fun v ->
          nested :=
            Fmt.str "[recovery-recrash %s] %s" state.Device.cs_label v
            :: !nested)
        (verify scenario (image_device scenario image) expectations));
  (out @ List.rev !nested, List.length recovery_states, !images)

(* --- scenario driver --- *)

let run_scenario ?(params = default_params) scenario =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let device = Device.create engine stats scenario.config in
  let expectations : (string, expectation) Hashtbl.t = Hashtbl.create 16 in
  let arm, capture, captured =
    fence_captures device ~max_states:params.max_states ~prefix:"fence"
      (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) expectations []
        |> List.sort compare)
  in
  let started = ref false in
  let ctl =
    {
      start =
        (fun () ->
          started := true;
          arm ());
      checkpoint = (fun label -> if !started then capture label);
      expect = (fun path e -> Hashtbl.replace expectations path e);
      retract = (fun path -> Hashtbl.remove expectations path);
    }
  in
  Engine.spawn engine ~name:("crashmc-" ^ scenario.name) (fun () ->
      scenario.run device ctl);
  Engine.run engine;
  capture "final";
  let states = captured () in
  (* Enumerate and verify. *)
  let rng = Rng.create ~seed:params.seed in
  let images = ref 0 in
  let violations = ref [] in
  let recrash_budget = ref params.recrash_checks in
  let recovery_states = ref 0 in
  let recovery_images = ref 0 in
  explore states
    ~vectors:
      (vectors_for rng ~k:params.k_exhaustive
         ~cap:params.max_images_per_state ~samples:params.samples_per_state)
    ~admit:(fun () -> true)
    ~check:(fun state exps image ->
      incr images;
      let vs =
        if !recrash_budget > 0 then begin
          let vs, rstates, rimages =
            verify_image_recrash scenario params rng ~budget:recrash_budget
              image exps
          in
          recovery_states := !recovery_states + rstates;
          recovery_images := !recovery_images + rimages;
          vs
        end
        else verify scenario (image_device scenario image) exps
      in
      List.iter
        (fun v -> violations := (state.Device.cs_label, v) :: !violations)
        vs);
  {
    sr_name = scenario.name;
    sr_expect_violation = scenario.expect_violation;
    sr_states = List.length states;
    sr_images = !images;
    sr_checked = !images;
    sr_recovery_states = !recovery_states;
    sr_recovery_images = !recovery_images;
    sr_violations = List.rev !violations;
  }

(* --- suite --- *)

type report = { params : params; results : scenario_result list }

let run_suite ?(params = default_params) scenarios =
  { params; results = List.map (run_scenario ~params) scenarios }

let total_images report =
  List.fold_left (fun acc r -> acc + r.sr_images) 0 report.results

let total_states report =
  List.fold_left (fun acc r -> acc + r.sr_states) 0 report.results

let total_recovery_states report =
  List.fold_left (fun acc r -> acc + r.sr_recovery_states) 0 report.results

let total_recovery_images report =
  List.fold_left (fun acc r -> acc + r.sr_recovery_images) 0 report.results

(* Violations in scenarios that are supposed to be correct. *)
let unexpected_violations report =
  List.concat_map
    (fun r ->
      if r.sr_expect_violation then []
      else List.map (fun (st, v) -> (r.sr_name, st, v)) r.sr_violations)
    report.results

(* Buggy fixtures the checker failed to flag (vacuity check). *)
let missed_fixtures report =
  List.filter_map
    (fun r ->
      if r.sr_expect_violation && r.sr_violations = [] then Some r.sr_name
      else None)
    report.results

let ok report = unexpected_violations report = [] && missed_fixtures report = []

let pp_result ppf r =
  let status =
    match (r.sr_expect_violation, r.sr_violations) with
    | false, [] -> "ok"
    | false, _ -> "VIOLATIONS"
    | true, [] -> "FIXTURE MISSED"
    | true, _ -> "flagged (expected)"
  in
  Fmt.pf ppf "%-32s %4d states %6d images %5d recrash  %s" r.sr_name
    r.sr_states r.sr_images r.sr_recovery_images status;
  match (r.sr_expect_violation, r.sr_violations) with
  | false, _ :: _ ->
    List.iter
      (fun (st, v) -> Fmt.pf ppf "@,    [%s] %s" st v)
      r.sr_violations
  | true, (st, v) :: _ ->
    Fmt.pf ppf "@,    e.g. [%s] %s" st v
  | _ -> ()

let pp_report ppf report =
  Fmt.pf ppf "@[<v>crashmc: seed %Ld, K=%d, %d samples/state@,"
    report.params.seed report.params.k_exhaustive
    report.params.samples_per_state;
  List.iter (fun r -> Fmt.pf ppf "%a@," pp_result r) report.results;
  Fmt.pf ppf
    "total: %d crash states, %d distinct crash images, %d recovery states, \
     %d re-crash images, %s@]"
    (total_states report) (total_images report)
    (total_recovery_states report)
    (total_recovery_images report)
    (if ok report then "all checks passed"
     else
       Fmt.str "%d unexpected violation(s), %d missed fixture(s)"
         (List.length (unexpected_violations report))
         (List.length (missed_fixtures report)))
