(* Stable file-handle table: the server-side identity that outlives a
   single request, a session, and (unlike an fd) a client reconnect.

   Each live handle is (slot, generation, ino, path). Slots are never
   reused and generations are globally monotonic, so any event that makes
   a handle's object stop being that object — unlink (even with a later
   re-create at the same path, which mints a fresh generation), or a
   rename clobbering its path — drops its entry: the table holds live
   handles only, however many were minted. A handle with no entry is one
   the server no longer knows, so resolving it fails with ESTALE before
   any inode state is touched (the contract documented in
   Hinfs_vfs.Errno); recovery is a fresh LOOKUP. *)

module Errno = Hinfs_vfs.Errno
module Obs = Hinfs_obs.Obs

type entry = {
  slot : int;
  gen : int;
  ino : int;
  mutable path : string; (* tracks renames of the object itself *)
}

type t = {
  slots : (int, entry) Hashtbl.t; (* live handles only *)
  by_path : (string, int) Hashtbl.t; (* live handles only *)
  mutable next_slot : int;
  mutable next_gen : int;
  mutable estale_total : int;
}

let create () =
  {
    slots = Hashtbl.create 256;
    by_path = Hashtbl.create 256;
    next_slot = 1;
    next_gen = 1;
    estale_total = 0;
  }

let live t = Hashtbl.length t.by_path
let total t = t.next_slot - 1
let estale_total t = t.estale_total

let fresh t ~path ~ino =
  let slot = t.next_slot and gen = t.next_gen in
  t.next_slot <- slot + 1;
  t.next_gen <- gen + 1;
  Hashtbl.replace t.slots slot { slot; gen; ino; path };
  Hashtbl.replace t.by_path path slot;
  Wire.fh_make ~slot ~gen

(* [e] stops naming its object: its entry leaves the table. A request
   in flight may still hold [e] and stale it again, which changes
   nothing: slots are never reused. *)
let mark_stale t e =
  Hashtbl.remove t.slots e.slot;
  match Hashtbl.find_opt t.by_path e.path with
  | Some slot when slot = e.slot -> Hashtbl.remove t.by_path e.path
  | _ -> ()

(* LOOKUP/CREATE entry point: hand back the existing live handle while it
   still names the same inode, otherwise stale it and mint a fresh one
   (this is where an unlink+recreate at the same path gets its bump). *)
let mint t ~path ~ino =
  match Hashtbl.find_opt t.by_path path with
  | Some slot ->
    let e = Hashtbl.find t.slots slot in
    if e.ino = ino then Wire.fh_make ~slot ~gen:e.gen
    else begin
      mark_stale t e;
      fresh t ~path ~ino
    end
  | None -> fresh t ~path ~ino

let reject t ~slot ~gen ~detail =
  t.estale_total <- t.estale_total + 1;
  Obs.instant Obs.Ev_estale ~a:slot ~b:gen;
  Errno.raise_error ESTALE "handle %d.%d %s" slot gen detail

let resolve t fh =
  let slot = Wire.fh_slot fh and gen = Wire.fh_gen fh in
  match Hashtbl.find_opt t.slots slot with
  | Some e when e.gen = gen -> e
  | _ -> reject t ~slot ~gen ~detail:"is stale or unknown"

(* The path is being removed: stale its live handle, reporting the inode
   so the caller can drop any cached open before the unlink proper. *)
let invalidate_path t path =
  match Hashtbl.find_opt t.by_path path with
  | None -> None
  | Some slot ->
    let e = Hashtbl.find t.slots slot in
    mark_stale t e;
    Some e.ino

(* Rename: the object keeps its handle under the new name; whatever lived
   at the destination was clobbered — stale it and report its inode. *)
let note_rename t ~src ~dst =
  let clobbered = invalidate_path t dst in
  (match Hashtbl.find_opt t.by_path src with
  | None -> ()
  | Some slot ->
    let e = Hashtbl.find t.slots slot in
    Hashtbl.remove t.by_path src;
    e.path <- dst;
    Hashtbl.replace t.by_path dst slot);
  clobbered

(* Deterministic table dump for the seeded-run equality test. *)
let dump t =
  Hashtbl.fold (fun _ e acc -> (e.slot, e.gen, e.ino, e.path) :: acc)
    t.slots []
  |> List.sort compare
