(* The four filebench personalities of Table 1 (micro benchmarks).

   Operation flows follow the filebench models; sizes default to a
   laptop-scale calibration of the paper's setup (the paper uses 5 GB
   filesets and 1 MB mean I/O on a 16 GB machine; we scale the dataset to
   the simulated device and keep every ratio — see EXPERIMENTS.md).

   Each flowop (open, read, append, fsync, close, create, delete, stat)
   counts as one operation, matching filebench's ops/s metric. *)

module Rng = Hinfs_sim.Rng
module Zipf = Hinfs_sim.Zipf
module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno

type params = {
  nfiles : int;
  mean_file_size : int;
  io_size : int; (* transfer chunk ("mean I/O size") *)
  append_size : int;
  zipf_theta : float; (* file-popularity skew *)
}

let default_params =
  {
    nfiles = 1024;
    mean_file_size = 64 * 1024;
    io_size = 64 * 1024;
    append_size = 16 * 1024;
    zipf_theta = 0.1 (* fileserver picks files near-uniformly (filebench) *);
  }

(* Swallow races between worker threads (two threads deleting/creating the
   same fileset entry), as filebench does. *)
let attempt f = try f () with Errno.Fs_error _ -> ()

let attempt_ops f = try f () with Errno.Fs_error _ -> 0

let scratch_pool = Hashtbl.create 8

let scratch io_size =
  match Hashtbl.find_opt scratch_pool io_size with
  | Some b -> b
  | None ->
    let b = Bytes.make io_size 'w' in
    Hashtbl.replace scratch_pool io_size b;
    b

let write_whole (h : Vfs.handle) fd ~size ~io_size =
  let buf = scratch (max io_size 1) in
  let rec loop off ops =
    if off >= size then ops
    else begin
      let chunk = min io_size (size - off) in
      ignore (h.Vfs.write fd buf chunk);
      loop (off + chunk) (ops + 1)
    end
  in
  loop 0 0

let read_whole (h : Vfs.handle) fd ~io_size =
  let buf = scratch (max io_size 1) in
  let rec loop ops =
    let n = h.Vfs.read fd buf io_size in
    if n > 0 then loop (ops + 1) else ops
  in
  loop 0

(* --- fileserver: creates, deletes, appends, whole reads and writes --- *)

let fileserver ?(params = default_params) () =
  let fileset =
    { Fileset.dir = "/fileserver"; nfiles = params.nfiles;
      mean_size = params.mean_file_size }
  in
  let zipf = Zipf.create ~n:params.nfiles ~theta:params.zipf_theta in
  {
    Workload.name = "fileserver";
    setup =
      (fun h rng -> Fileset.populate h fileset rng ~io_size:params.io_size);
    worker =
      (fun ctx ->
        let h = ctx.Workload.handle in
        let rng = ctx.Workload.rng in
        let ops = ref 0 in
        let i = Zipf.sample zipf rng in
        let path = Fileset.file_path fileset i in
        (* delete + recreate with a full write *)
        attempt (fun () ->
            h.Vfs.unlink path;
            incr ops);
        attempt (fun () ->
            let fd = h.Vfs.open_ path Types.creat in
            incr ops;
            let size = Fileset.sample_size fileset rng in
            ops := !ops + write_whole h fd ~size ~io_size:params.io_size;
            h.Vfs.close fd;
            incr ops);
        (* append a random amount to another file (filebench's
           appendfilerand: uniform in [1, append_size]) — the ragged tails
           this produces are what CLFW's fetch/flush granularity acts on *)
        let j = Zipf.sample zipf rng in
        attempt (fun () ->
            let fd =
              h.Vfs.open_ (Fileset.file_path fileset j)
                { Types.wronly with Types.append = true }
            in
            incr ops;
            let n = 1 + Rng.int rng params.append_size in
            ignore (h.Vfs.write fd (scratch params.append_size) n);
            incr ops;
            h.Vfs.close fd;
            incr ops);
        (* whole-file read of a third *)
        let k = Zipf.sample zipf rng in
        attempt (fun () ->
            let fd = h.Vfs.open_ (Fileset.file_path fileset k) Types.rdonly in
            incr ops;
            ops := !ops + read_whole h fd ~io_size:params.io_size;
            h.Vfs.close fd;
            incr ops);
        (* stat a fourth *)
        attempt (fun () ->
            ignore (h.Vfs.stat (Fileset.file_path fileset (Zipf.sample zipf rng)));
            incr ops);
        !ops);
  }

(* --- webserver: whole-file reads plus a log append --- *)

let webserver ?(params = { default_params with
                           nfiles = 2048;
                           mean_file_size = 32 * 1024;
                           zipf_theta = 0.8 }) () =
  let fileset =
    { Fileset.dir = "/webserver"; nfiles = params.nfiles;
      mean_size = params.mean_file_size }
  in
  let zipf = Zipf.create ~n:params.nfiles ~theta:params.zipf_theta in
  {
    Workload.name = "webserver";
    setup =
      (fun h rng ->
        Fileset.populate h fileset rng ~io_size:params.io_size;
        if not (h.Vfs.exists "/weblogs") then h.Vfs.mkdir "/weblogs");
    worker =
      (fun ctx ->
        let h = ctx.Workload.handle in
        let rng = ctx.Workload.rng in
        let ops = ref 0 in
        (* 10 open-read-close rounds *)
        for _ = 1 to 10 do
          let i = Zipf.sample zipf rng in
          attempt (fun () ->
              let fd = h.Vfs.open_ (Fileset.file_path fileset i) Types.rdonly in
              incr ops;
              ops := !ops + read_whole h fd ~io_size:params.io_size;
              h.Vfs.close fd;
              incr ops)
        done;
        (* log append *)
        let log = Printf.sprintf "/weblogs/log%d" ctx.Workload.thread_id in
        attempt (fun () ->
            let fd =
              h.Vfs.open_ log { Types.creat with Types.append = true }
            in
            incr ops;
            ignore (h.Vfs.write fd (scratch params.append_size) params.append_size);
            incr ops;
            h.Vfs.close fd;
            incr ops);
        !ops);
  }

(* --- webproxy: short-lived files with strong locality --- *)

let webproxy ?(params = { default_params with
                          nfiles = 4096;
                          mean_file_size = 16 * 1024;
                          zipf_theta = 0.9 }) () =
  let fileset =
    { Fileset.dir = "/webproxy"; nfiles = params.nfiles;
      mean_size = params.mean_file_size }
  in
  let zipf = Zipf.create ~n:params.nfiles ~theta:params.zipf_theta in
  {
    Workload.name = "webproxy";
    setup =
      (fun h rng ->
        Fileset.populate h fileset rng ~io_size:params.io_size;
        if not (h.Vfs.exists "/proxylogs") then h.Vfs.mkdir "/proxylogs");
    worker =
      (fun ctx ->
        let h = ctx.Workload.handle in
        let rng = ctx.Workload.rng in
        let ops = ref 0 in
        (* delete - create/write - close on a hot entry (short-lived) *)
        let i = Zipf.sample zipf rng in
        let path = Fileset.file_path fileset i in
        attempt (fun () ->
            h.Vfs.unlink path;
            incr ops);
        attempt (fun () ->
            let fd = h.Vfs.open_ path Types.creat in
            incr ops;
            let size = Fileset.sample_size fileset rng in
            ops := !ops + write_whole h fd ~size ~io_size:params.io_size;
            h.Vfs.close fd;
            incr ops);
        (* 5 open-read-close rounds *)
        for _ = 1 to 5 do
          let j = Zipf.sample zipf rng in
          attempt (fun () ->
              let fd = h.Vfs.open_ (Fileset.file_path fileset j) Types.rdonly in
              incr ops;
              ops := !ops + read_whole h fd ~io_size:params.io_size;
              h.Vfs.close fd;
              incr ops)
        done;
        (* log append *)
        let log = Printf.sprintf "/proxylogs/log%d" ctx.Workload.thread_id in
        attempt (fun () ->
            let fd = h.Vfs.open_ log { Types.creat with Types.append = true } in
            incr ops;
            ignore (h.Vfs.write fd (scratch params.append_size) params.append_size);
            incr ops;
            h.Vfs.close fd;
            incr ops);
        !ops);
  }

(* --- varmail: create-append-fsync / read-append-fsync (mail server) --- *)

let varmail ?(params = { default_params with
                         nfiles = 4096;
                         mean_file_size = 16 * 1024;
                         zipf_theta = 0.6 }) () =
  let fileset =
    { Fileset.dir = "/varmail"; nfiles = params.nfiles;
      mean_size = params.mean_file_size }
  in
  let zipf = Zipf.create ~n:params.nfiles ~theta:params.zipf_theta in
  {
    Workload.name = "varmail";
    setup =
      (fun h rng -> Fileset.populate h fileset rng ~io_size:params.io_size);
    worker =
      (fun ctx ->
        let h = ctx.Workload.handle in
        let rng = ctx.Workload.rng in
        let ops = ref 0 in
        (* delete a mail *)
        let i = Zipf.sample zipf rng in
        attempt (fun () ->
            h.Vfs.unlink (Fileset.file_path fileset i);
            incr ops);
        (* create - append - fsync - close (mail delivery) *)
        attempt (fun () ->
            let fd =
              h.Vfs.open_ (Fileset.file_path fileset i)
                { Types.creat with Types.append = true }
            in
            incr ops;
            ignore (h.Vfs.write fd (scratch params.append_size) params.append_size);
            incr ops;
            h.Vfs.fsync fd;
            incr ops;
            h.Vfs.close fd;
            incr ops);
        (* open - read whole - append - fsync - close (mail update) *)
        let j = Zipf.sample zipf rng in
        ops :=
          !ops
          + attempt_ops (fun () ->
                let fd =
                  h.Vfs.open_ (Fileset.file_path fileset j)
                    { Types.rdwr with Types.append = true }
                in
                let o = ref 1 in
                o := !o + read_whole h fd ~io_size:params.io_size;
                ignore
                  (h.Vfs.write fd (scratch params.append_size) params.append_size);
                incr o;
                h.Vfs.fsync fd;
                incr o;
                h.Vfs.close fd;
                incr o;
                !o);
        (* open - read whole - close (mail read) *)
        let k = Zipf.sample zipf rng in
        attempt (fun () ->
            let fd = h.Vfs.open_ (Fileset.file_path fileset k) Types.rdonly in
            incr ops;
            ops := !ops + read_whole h fd ~io_size:params.io_size;
            h.Vfs.close fd;
            incr ops);
        !ops);
  }
