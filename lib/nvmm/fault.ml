(* Deterministic media-fault model for the NVMM device.

   Real NVMM fails at cacheline granularity: an uncorrectable ECC error
   marks the line poisoned and a load of it takes a machine-check (Linux
   surfaces this as a badblock + SIGBUS on DAX mappings). The model keeps
   two fault populations over the medium's cachelines:

   - persistent poison: drawn at store time (each line streamed to the
     medium fails to stick with probability [poison_rate]) or injected
     explicitly; every subsequent load of a poisoned line raises
     {!Media_error} with [transient = false]. Rewriting the whole line
     heals it, like a movdir64b overwrite clearing a PMEM badblock.

   - transient read faults: a load draws with probability [transient_rate]
     and fails once; the line is remembered so the retry deterministically
     succeeds (the model for a correctable-but-slow ECC recovery that the
     driver retries).

   All randomness comes from one splitmix64 stream seeded at creation, and
   draws happen in device-access order, so a fixed seed and workload give
   bit-identical fault placement. The model is attached to a device as an
   option (None = perfect medium, zero cost on the hot paths, like the
   persistence-event recorder). *)

module Rng = Hinfs_sim.Rng

exception
  Media_error of {
    addr : int;  (** byte address of the faulting cacheline *)
    transient : bool;  (** [true] when a bounded retry may succeed *)
  }

let () =
  Printexc.register_printer (function
    | Media_error { addr; transient } ->
      Some
        (Printf.sprintf "Media_error(addr=%#x, %s)" addr
           (if transient then "transient" else "poisoned"))
    | _ -> None)

type t = {
  seed : int64;
  rng : Rng.t;
  poison_rate : float;
      (** per-line probability a store leaves poison *)
  transient_rate : float;
      (** per-line probability a load faults once *)
  poisoned : (int, unit) Hashtbl.t;  (** line index -> poisoned *)
  transient_pending : (int, unit) Hashtbl.t;
      (** lines whose next load must succeed (fault already delivered) *)
  mutable store_poisons : int;  (** lines poisoned by failed stores *)
  mutable heals : int;  (** poisoned lines healed by a full-line store *)
}

let create ?(poison_rate = 0.0) ?(transient_rate = 0.0) ~seed () =
  if poison_rate < 0.0 || poison_rate > 1.0 then
    invalid_arg "Fault.create: poison_rate outside [0, 1]";
  if transient_rate < 0.0 || transient_rate > 1.0 then
    invalid_arg "Fault.create: transient_rate outside [0, 1]";
  {
    seed;
    rng = Rng.create ~seed;
    poison_rate;
    transient_rate;
    poisoned = Hashtbl.create 64;
    transient_pending = Hashtbl.create 16;
    store_poisons = 0;
    heals = 0;
  }

(* --- device hooks (line-index granularity) --- *)

type load_fault = Poisoned | Transient

(* One load touching line [idx]: poisoned lines always fault; otherwise a
   pending transient fault is consumed (the retry succeeds) or a fresh
   transient fault may be drawn. *)
let check_load t idx =
  if Hashtbl.mem t.poisoned idx then Some Poisoned
  else if Hashtbl.mem t.transient_pending idx then begin
    Hashtbl.remove t.transient_pending idx;
    None
  end
  else if t.transient_rate > 0.0 && Rng.chance t.rng t.transient_rate then begin
    Hashtbl.replace t.transient_pending idx ();
    Some Transient
  end
  else None

(* A full line reached the medium: rewriting heals existing poison, and the
   store itself may fail to stick, leaving fresh poison. *)
let store_line t idx =
  if Hashtbl.mem t.poisoned idx then begin
    Hashtbl.remove t.poisoned idx;
    t.heals <- t.heals + 1
  end;
  Hashtbl.remove t.transient_pending idx;
  if t.poison_rate > 0.0 && Rng.chance t.rng t.poison_rate then begin
    Hashtbl.replace t.poisoned idx ();
    t.store_poisons <- t.store_poisons + 1
  end

(* Reliable full-line overwrite (poke / repair paths): heals, never draws. *)
let heal_line t idx =
  if Hashtbl.mem t.poisoned idx then begin
    Hashtbl.remove t.poisoned idx;
    t.heals <- t.heals + 1
  end;
  Hashtbl.remove t.transient_pending idx

(* --- explicit injection & inspection (tests, scrub, fsck) --- *)

let poison_line t idx = Hashtbl.replace t.poisoned idx ()
let clear_line t idx = Hashtbl.remove t.poisoned idx
let is_poisoned t idx = Hashtbl.mem t.poisoned idx

let poisoned_lines t =
  Hashtbl.fold (fun idx () acc -> idx :: acc) t.poisoned []
  |> List.sort compare

let store_poisons t = t.store_poisons
let heals t = t.heals
