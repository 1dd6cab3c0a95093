(* System-call trace model, synthetic generators, and the replayer.

   The paper replays four system-call traces (FIU Usr0/Usr1, LASR,
   MobiBench-Facebook), extracting read, write, unlink and fsync and timing
   each class (Fig. 12). The original traces are not redistributable, so
   each generator synthesises a trace matching the properties the paper
   reports and relies on:

   - Usr0/Usr1 (research desktops): mixed read/write with strong locality,
     a moderate share of fsync-covered writes (Fig. 2 shows a middling
     fsync-byte ratio), occasional deletes; Usr1 is more write-heavy.
   - LASR (software-development machines): *no fsync at all* (Fig. 2 shows
     0%), small I/O, read-leaning, frequent small rewrites.
   - Facebook (MobiBench): SQLite-style behaviour — small writes (mean I/O
     below 1 KB) nearly every one of which is followed by an fsync, so
     buffering cannot coalesce anything (the paper's explanation for HiNFS
     ~ PMFS on this trace).

   Each record targets a numbered file; the replayer pre-creates the file
   population, keeps per-file descriptors, and accounts each operation's
   virtual time to its op class. *)

module Rng = Hinfs_sim.Rng
module Zipf = Hinfs_sim.Zipf
module Proc = Hinfs_sim.Proc
module Stats = Hinfs_stats.Stats
module Vfs = Hinfs_vfs.Vfs
module Obs = Hinfs_obs.Obs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno

type op =
  | Read of { file : int; off : int; len : int }
  | Write of { file : int; off : int; len : int }
  | Unlink of { file : int }
  | Fsync of { file : int }

type t = {
  trace_name : string;
  nfiles : int;
  initial_file_size : int;
  ops : op list;
}

let name t = t.trace_name
let ops t = t.ops

(* --- generator scaffolding ---

   Files belong to behaviour classes, because that is what real desktop
   traces look like (and what makes the paper's Buffer Benefit Model ~90%
   accurate, Fig. 6 — per-block sync behaviour is stable over time):

   - Doc:     bursts of overlapping writes to one region, fsynced every few
              bursts (editors, office apps): coalescing pays, blocks stay
              Lazy-Persistent;
   - Log:     small writes each followed by fsync (databases, mail):
              nothing coalesces, blocks go Eager-Persistent;
   - Scratch: writes never fsynced (build outputs, caches). *)

type file_class = Doc | Log | Scratch

type profile = {
  p_name : string;
  p_nfiles : int;
  p_initial_size : int;
  p_theta : float; (* file-selection skew *)
  p_read : float; (* op-mix weights (normalised internally) *)
  p_write : float;
  p_unlink : float;
  p_mean_io : int;
  p_io_spread : int; (* io size uniform in [mean-spread, mean+spread] *)
  p_doc : float; (* fraction of files that are Doc-class *)
  p_log : float; (* fraction that are Log-class; rest are Scratch *)
  p_burst : int; (* writes per Doc burst (overlapping region) *)
  p_fsync_bursts : int; (* fsync a Doc file every this many bursts *)
}

let class_of profile file =
  (* Deterministic per-file class assignment, spread so the class mix also
     holds among the zipf-hot low ranks. *)
  let u = float_of_int (((file * 37) + 13) mod 100) /. 100.0 in
  if u < profile.p_doc then Doc
  else if u < profile.p_doc +. profile.p_log then Log
  else Scratch

let generate profile ~ops ~seed =
  let rng = Rng.create ~seed in
  let zipf = Zipf.create ~n:profile.p_nfiles ~theta:profile.p_theta in
  let total = profile.p_read +. profile.p_write +. profile.p_unlink in
  let bursts_since_sync = Hashtbl.create 64 in
  let max_off = 4 * profile.p_initial_size in
  let io_size () =
    max 16
      (profile.p_mean_io - profile.p_io_spread
      + Rng.int rng ((2 * profile.p_io_spread) + 1))
  in
  let record _i =
    let file = Zipf.sample zipf rng in
    let dice = Rng.float rng *. total in
    if dice < profile.p_read then
      [ Read { file; off = Rng.int rng max_off; len = io_size () } ]
    else if dice < profile.p_read +. profile.p_write then begin
      match class_of profile file with
      | Scratch -> [ Write { file; off = Rng.int rng max_off; len = io_size () } ]
      | Log ->
        (* Small commit-like write, synced immediately. *)
        [ Write { file; off = Rng.int rng max_off; len = io_size () };
          Fsync { file } ]
      | Doc ->
        (* A burst of overlapping writes to one region (block-aligned, as
           application record/page updates are); coalescing-friendly. *)
        let base = Rng.int rng (max 1 (max_off / 4096)) * 4096 in
        let burst =
          List.init profile.p_burst (fun _ ->
              Write { file; off = base + Rng.int rng 512; len = io_size () })
        in
        let bursts =
          1 + Option.value ~default:0 (Hashtbl.find_opt bursts_since_sync file)
        in
        if bursts >= profile.p_fsync_bursts then begin
          Hashtbl.replace bursts_since_sync file 0;
          burst @ [ Fsync { file } ]
        end
        else begin
          Hashtbl.replace bursts_since_sync file bursts;
          burst
        end
    end
    else begin
      Hashtbl.remove bursts_since_sync file;
      [ Unlink { file } ]
    end
  in
  {
    trace_name = profile.p_name;
    nfiles = profile.p_nfiles;
    initial_file_size = profile.p_initial_size;
    ops = List.concat (List.init ops record);
  }

(* --- the four trace profiles --- *)

let usr0 ?(ops = 8_000) ?(seed = 100L) () =
  generate
    {
      p_name = "usr0";
      p_nfiles = 128;
      p_initial_size = 32 * 1024;
      p_theta = 0.85;
      p_read = 0.30;
      p_write = 0.66;
      p_unlink = 0.04;
      p_mean_io = 8 * 1024;
      p_io_spread = 6 * 1024;
      p_doc = 0.45;
      p_log = 0.20;
      p_burst = 5;
      p_fsync_bursts = 2;
    }
    ~ops ~seed

let usr1 ?(ops = 8_000) ?(seed = 101L) () =
  generate
    {
      p_name = "usr1";
      p_nfiles = 128;
      p_initial_size = 32 * 1024;
      p_theta = 0.80;
      p_read = 0.20;
      p_write = 0.76;
      p_unlink = 0.04;
      p_mean_io = 12 * 1024;
      p_io_spread = 8 * 1024;
      p_doc = 0.35;
      p_log = 0.30;
      p_burst = 4;
      p_fsync_bursts = 2;
    }
    ~ops ~seed

let lasr ?(ops = 8_000) ?(seed = 102L) () =
  generate
    {
      p_name = "lasr";
      p_nfiles = 160;
      p_initial_size = 16 * 1024;
      p_theta = 0.90;
      p_read = 0.45;
      p_write = 0.50;
      p_unlink = 0.05;
      p_mean_io = 2 * 1024;
      p_io_spread = 1536;
      p_doc = 0.0 (* Fig. 2: LASR has no fsync writes at all *);
      p_log = 0.0;
      p_burst = 1;
      p_fsync_bursts = max_int;
    }
    ~ops ~seed

let facebook ?(ops = 8_000) ?(seed = 103L) () =
  generate
    {
      p_name = "facebook";
      p_nfiles = 64;
      p_initial_size = 8 * 1024;
      p_theta = 0.95;
      p_read = 0.18;
      p_write = 0.80;
      p_unlink = 0.02;
      p_mean_io = 512 (* mean I/O below 1 KB, §5.3 *);
      p_io_spread = 384;
      p_doc = 0.05;
      p_log = 0.90 (* SQLite-style: sync after almost every write *);
      p_burst = 3;
      p_fsync_bursts = 1;
    }
    ~ops ~seed

let all ?ops () =
  [ usr0 ?ops (); usr1 ?ops (); lasr ?ops (); facebook ?ops () ]

(* --- replayer --- *)

type replay_result = {
  r_trace : string;
  r_fs_name : string;
  r_elapsed_ns : int64;
  r_read_ns : int64;
  r_write_ns : int64;
  r_unlink_ns : int64;
  r_fsync_ns : int64;
  r_ops : int;
}

let pp_replay_result ppf r =
  Fmt.pf ppf
    "%-9s %-14s total %10.3f ms  (read %8.3f  write %8.3f  unlink %8.3f  \
     fsync %8.3f)"
    r.r_trace r.r_fs_name
    (Int64.to_float r.r_elapsed_ns /. 1e6)
    (Int64.to_float r.r_read_ns /. 1e6)
    (Int64.to_float r.r_write_ns /. 1e6)
    (Int64.to_float r.r_unlink_ns /. 1e6)
    (Int64.to_float r.r_fsync_ns /. 1e6)

let file_path i = Printf.sprintf "/trace/t%04d" i

(* Replay on a mounted handle. Population runs first; the stats are reset
   so only the replay window is measured. Must run inside a simulation
   process. *)
let replay ~stats trace (h : Vfs.handle) =
  (* Populate. *)
  if not (h.Vfs.exists "/trace") then h.Vfs.mkdir "/trace";
  let scratch = Bytes.make (1024 * 1024) 't' in
  for i = 0 to trace.nfiles - 1 do
    let fd = h.Vfs.open_ (file_path i) { Types.creat with Types.truncate = true } in
    ignore (h.Vfs.write fd scratch trace.initial_file_size);
    h.Vfs.close fd
  done;
  h.Vfs.sync_all ();
  Stats.reset stats;
  (match Obs.current () with Some o -> Obs.reset o | None -> ());
  let fds = Hashtbl.create 64 in
  let fd_of file =
    match Hashtbl.find_opt fds file with
    | Some fd -> fd
    | None ->
      let fd = h.Vfs.open_ (file_path file) { Types.rdwr with Types.create = true } in
      Hashtbl.replace fds file fd;
      fd
  in
  let close_fd file =
    match Hashtbl.find_opt fds file with
    | Some fd ->
      (try h.Vfs.close fd with Errno.Fs_error _ -> ());
      Hashtbl.remove fds file
    | None -> ()
  in
  let start = Proc.now () in
  let ops = ref 0 in
  (* Per-class virtual time (Fig. 12's breakdown). *)
  let read_ns = ref 0L and write_ns = ref 0L in
  let unlink_ns = ref 0L and fsync_ns = ref 0L in
  let timed acc f =
    let t0 = Proc.now () in
    (try f () with Errno.Fs_error _ -> ());
    acc := Int64.add !acc (Int64.sub (Proc.now ()) t0);
    incr ops
  in
  List.iter
    (fun op ->
      match op with
      | Read { file; off; len } ->
        timed read_ns (fun () ->
            ignore (h.Vfs.pread (fd_of file) ~off scratch len))
      | Write { file; off; len } ->
        timed write_ns (fun () ->
            ignore (h.Vfs.pwrite (fd_of file) ~off scratch len))
      | Unlink { file } ->
        timed unlink_ns (fun () ->
            close_fd file;
            h.Vfs.unlink (file_path file))
      | Fsync { file } ->
        timed fsync_ns (fun () -> h.Vfs.fsync (fd_of file)))
    trace.ops;
  Hashtbl.iter (fun _ fd -> try h.Vfs.close fd with Errno.Fs_error _ -> ()) fds;
  {
    r_trace = trace.trace_name;
    r_fs_name = h.Vfs.fs_name;
    r_elapsed_ns = Int64.sub (Proc.now ()) start;
    r_read_ns = !read_ns;
    r_write_ns = !write_ns;
    r_unlink_ns = !unlink_ns;
    r_fsync_ns = !fsync_ns;
    r_ops = !ops;
  }
