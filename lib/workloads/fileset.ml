(* Fileset population, filebench-style: a directory tree of pre-allocated
   files with configurable count and mean size. *)

module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Rng = Hinfs_sim.Rng

type t = {
  dir : string;
  nfiles : int;
  mean_size : int;
}

let file_path t i = Printf.sprintf "%s/d%02d/f%05d" t.dir (i mod 16) i

(* Gamma-ish size distribution around the mean (filebench uses a gamma with
   shape 1.5; a clamped exponential mixture is close enough). *)
let sample_size t rng =
  let u = Rng.float rng in
  let size = int_of_float (float_of_int t.mean_size *. (0.25 +. (1.5 *. u))) in
  max 64 size

(* Write a whole file in [io_size] chunks from a reusable scratch buffer. *)
let write_stream (h : Vfs.handle) fd ~scratch ~size ~io_size =
  let rec loop off =
    if off < size then begin
      let chunk = min io_size (size - off) in
      ignore (h.Vfs.write fd scratch chunk);
      loop (off + chunk)
    end
  in
  loop 0

let populate (h : Vfs.handle) t rng ~io_size =
  (match h.Vfs.exists t.dir with
  | true -> ()
  | false -> h.Vfs.mkdir t.dir);
  for d = 0 to 15 do
    let dir = Printf.sprintf "%s/d%02d" t.dir d in
    if not (h.Vfs.exists dir) then h.Vfs.mkdir dir
  done;
  let scratch = Bytes.make io_size 'p' in
  for i = 0 to t.nfiles - 1 do
    let path = file_path t i in
    let fd = h.Vfs.open_ path Types.creat in
    write_stream h fd ~scratch ~size:(sample_size t rng) ~io_size;
    h.Vfs.close fd
  done
