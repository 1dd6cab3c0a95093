(* Boundary probes. The benchmark times each layer from outside, by
   wrapping the closures it hands to that layer; nothing under lib/ knows
   it is being measured.

   - [Samples]: growable integer sample buffers and their quantiles.
   - [Spans]: the in-memory span log of a traced run (name, start, end,
     parent span, request id), written out as CSV when the run ends.
   - the vfs probe ([t], [wrap]): every call through a wrapped
     [Vfs.handle] is timed on the virtual clock, classed by syscall, and
     its [Fs_error] counted by errno, while the probe's window is open.
     With [attribute] set, calls made on serving-layer worker fibers are
     also queued per process, so that the rpc wrapper in [Serve_load] can
     claim the calls a worker made for one request. *)

module Engine = Hinfs_sim.Engine
module Vfs = Hinfs_vfs.Vfs
module Errno = Hinfs_vfs.Errno

(* Host nanoseconds from the monotonic clock. *)
let host_ns () = Monotonic_clock.now ()

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let sum = ref 0 in
      for i = 0 to t.n - 1 do
        sum := !sum + t.a.(i)
      done;
      float_of_int !sum /. float_of_int t.n
    end

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    s

  (* Quantile [q] of a sorted array: the order statistics at either side
     of rank q*(n-1), interpolated linearly (numpy's default). A quantile
     that lands inside a run of tied samples is that tied value. 0 when
     empty. *)
  let quantile s q =
    let n = Array.length s in
    if n = 0 then 0.0
    else begin
      let h = q *. float_of_int (n - 1) in
      let i = int_of_float h in
      let j = min (n - 1) (i + 1) in
      float_of_int s.(i) +. ((h -. float_of_int i) *. float_of_int (s.(j) - s.(i)))
    end

  (* How many samples lie strictly above quantile [q]. *)
  let beyond s q =
    let v = quantile s q in
    Array.fold_left (fun acc x -> if float_of_int x > v then acc + 1 else acc) 0 s
end

module Spans = struct
  type span = {
    id : int;
    name : string;
    pid : int;  (** simulation process that ran it *)
    t0 : int64;
    t1 : int64;
    parent : int;  (** -1 for a root span *)
    req : int;  (** request the span belongs to *)
  }

  type t = { mutable on : bool; mutable next : int; mutable log : span list }

  let create () = { on = false; next = 0; log = [] }

  let fresh t =
    let id = t.next in
    t.next <- id + 1;
    id

  let add t ~id ~name ~pid ~t0 ~t1 ~parent ~req =
    if t.on then t.log <- { id; name; pid; t0; t1; parent; req } :: t.log

  let count t = List.length t.log

  let write t path =
    let oc = open_out path in
    output_string oc "id,name,pid,start_ns,end_ns,parent,req\n";
    List.iter
      (fun s ->
        Printf.fprintf oc "%d,%s,%d,%Ld,%Ld,%d,%d\n" s.id s.name s.pid s.t0
          s.t1 s.parent s.req)
      (List.rev t.log);
    close_out oc
end

type cls = Open | Close | Read | Write | Fsync | Unlink | Rename | Stat | Other

let cls_index = function
  | Open -> 0
  | Close -> 1
  | Read -> 2
  | Write -> 3
  | Fsync -> 4
  | Unlink -> 5
  | Rename -> 6
  | Stat -> 7
  | Other -> 8

let cls_names =
  [| "open"; "close"; "read"; "write"; "fsync"; "unlink"; "rename"; "stat"; "other" |]

let cls_name cls = cls_names.(cls_index cls)
let span_names = Array.map (fun n -> "vfs." ^ n) cls_names

(* The classes reported one by one. *)
let measured = [ Open; Close; Read; Write; Fsync; Unlink; Rename; Stat ]

(* Which calls are a workload's durability points. *)
type sync_rule = { fsync : bool; unlink : bool }

let no_sync = { fsync = false; unlink = false }

type call = { cls : cls; t0 : int64; t1 : int64; pid : int }

type t = {
  engine : Engine.t;
  rule : sync_rule;
  spans : Spans.t;
  attribute : bool;
  mutable on : bool;  (** the measured window is open *)
  lat : Samples.t;  (** every call *)
  by_cls : Samples.t array;
  sync : Samples.t;  (** durability points *)
  mutable vfs_ns : int;  (** summed call time *)
  errors : (Errno.t, int) Hashtbl.t;
  pending : (int, call list) Hashtbl.t;
      (** per worker pid, newest first: the calls of the request the worker
          is serving, until its rpc claims them *)
  mutable orphaned : int;  (** worker calls that no rpc claimed *)
  mutable calls_on_workers : int;
  workers : (int, bool) Hashtbl.t;
}

let create ?(attribute = false) ~rule ~spans engine =
  {
    engine;
    rule;
    spans;
    attribute;
    on = false;
    lat = Samples.create ();
    by_cls = Array.init (Array.length cls_names) (fun _ -> Samples.create ());
    sync = Samples.create ();
    vfs_ns = 0;
    errors = Hashtbl.create 8;
    pending = Hashtbl.create 16;
    orphaned = 0;
    calls_on_workers = 0;
    workers = Hashtbl.create 16;
  }

let calls t = Samples.count t.lat
let error_count t = Hashtbl.fold (fun _ n acc -> acc + n) t.errors 0
let errors_of t e = Option.value ~default:0 (Hashtbl.find_opt t.errors e)

let is_worker t pid =
  match Hashtbl.find_opt t.workers pid with
  | Some b -> b
  | None ->
    let b =
      String.starts_with ~prefix:"srv-worker" (Engine.proc_name t.engine pid)
    in
    Hashtbl.replace t.workers pid b;
    b

let record t cls ~sync t0 err =
  let t1 = Engine.now t.engine in
  let pid = Engine.current_pid t.engine in
  if t.on then begin
    let d = Int64.to_int (Int64.sub t1 t0) in
    Samples.add t.lat d;
    Samples.add t.by_cls.(cls_index cls) d;
    if sync then Samples.add t.sync d;
    t.vfs_ns <- t.vfs_ns + d;
    match err with
    | None -> ()
    | Some e -> Hashtbl.replace t.errors e (errors_of t e + 1)
  end;
  if t.attribute && is_worker t pid then begin
    (* a call that does not start where the worker's previous call ended
       opens the segment of a new request *)
    let segment =
      match Hashtbl.find_opt t.pending pid with
      | Some (prev :: _ as calls) when Int64.equal prev.t1 t0 -> calls
      | Some calls ->
        t.orphaned <- t.orphaned + List.length calls;
        []
      | None -> []
    in
    t.calls_on_workers <- t.calls_on_workers + 1;
    Hashtbl.replace t.pending pid ({ cls; t0; t1; pid } :: segment)
  end
  else if t.spans.Spans.on then begin
    let id = Spans.fresh t.spans in
    Spans.add t.spans ~id ~name:span_names.(cls_index cls) ~pid ~t0 ~t1
      ~parent:(-1) ~req:id
  end

(* Worker calls that no request claimed. *)
let unclaimed t =
  Hashtbl.fold (fun _ calls acc -> acc + List.length calls) t.pending t.orphaned

let wrap t (h : Vfs.handle) : Vfs.handle =
  let timed cls sync f =
    let t0 = Engine.now t.engine in
    match f () with
    | v ->
      record t cls ~sync t0 None;
      v
    | exception (Errno.Fs_error (e, _) as ex) ->
      record t cls ~sync t0 (Some e);
      raise ex
  in
  let r = t.rule in
  {
    h with
    Vfs.open_ = (fun path flags -> timed Open false (fun () -> h.Vfs.open_ path flags));
    close = (fun fd -> timed Close false (fun () -> h.Vfs.close fd));
    read = (fun fd buf len -> timed Read false (fun () -> h.Vfs.read fd buf len));
    pread =
      (fun fd ~off buf len ->
        timed Read false (fun () -> h.Vfs.pread fd ~off buf len));
    write =
      (fun fd buf len -> timed Write false (fun () -> h.Vfs.write fd buf len));
    pwrite =
      (fun fd ~off buf len ->
        timed Write false (fun () -> h.Vfs.pwrite fd ~off buf len));
    fsync = (fun fd -> timed Fsync r.fsync (fun () -> h.Vfs.fsync fd));
    fstat = (fun fd -> timed Stat false (fun () -> h.Vfs.fstat fd));
    stat = (fun path -> timed Stat false (fun () -> h.Vfs.stat path));
    unlink = (fun path -> timed Unlink r.unlink (fun () -> h.Vfs.unlink path));
    rename =
      (fun src dst -> timed Rename false (fun () -> h.Vfs.rename src dst));
    mkdir = (fun path -> timed Other false (fun () -> h.Vfs.mkdir path));
    rmdir = (fun path -> timed Other false (fun () -> h.Vfs.rmdir path));
    readdir = (fun path -> timed Other false (fun () -> h.Vfs.readdir path));
    exists = (fun path -> timed Other false (fun () -> h.Vfs.exists path));
    truncate =
      (fun path size -> timed Other false (fun () -> h.Vfs.truncate path size));
    sync_all = (fun () -> timed Other false h.Vfs.sync_all);
  }
