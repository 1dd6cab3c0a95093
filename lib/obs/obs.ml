(* Global-sink observability on the virtual clock.

   Everything here must hold two invariants:

   - Zero cost when disabled: every public fast-path entry point starts
     with a match on the global sink and returns immediately (allocating
     nothing) when it is [None].

   - Zero simulated time always: the sink reads [Engine.now] but never
     performs an engine effect, so installing it cannot change any virtual
     timestamp — the determinism tests rely on this. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc

type kind =
  | Op_open
  | Op_close
  | Op_read
  | Op_write
  | Op_fsync
  | Op_seek
  | Op_mkdir
  | Op_rmdir
  | Op_unlink
  | Op_rename
  | Op_readdir
  | Op_stat
  | Op_exists
  | Op_truncate
  | Op_mmap
  | Op_munmap
  | Op_msync
  | Op_sync_all
  | Op_unmount
  | Journal_commit
  | Journal_recover
  | Writeback
  | Buffer_fetch
  | Flush
  | Fence
  | Slot_wait
  | Nvcache_append
  | Nvcache_destage
  | Nvcache_replay
  | Snapshot_commit
  | Snapshot_gc
  (* Serving-layer request classes (lib/server): one span per request,
     covering decode -> dispatch -> encode on the worker fiber. *)
  | Req_lookup
  | Req_getattr
  | Req_read
  | Req_write
  | Req_create
  | Req_remove
  | Req_rename
  | Req_commit
  (* Serving-layer internal phases, for tail breakdowns. *)
  | Srv_queue (* fan-in wait: enqueue on the client to pickup by a worker *)
  | Srv_decode
  | Srv_encode
  | Srv_flush (* durability work: stable writes, COMMIT, eviction flushes *)

type ev =
  | Ev_bbm_eager
  | Ev_bbm_lazy
  | Ev_mmap_pin
  | Ev_mmap_unpin
  | Ev_dead_drop
  | Ev_proc_spawn
  | Ev_session_expire
  | Ev_estale
  | Ev_oc_evict

let kind_index = function
  | Op_open -> 0
  | Op_close -> 1
  | Op_read -> 2
  | Op_write -> 3
  | Op_fsync -> 4
  | Op_seek -> 5
  | Op_mkdir -> 6
  | Op_rmdir -> 7
  | Op_unlink -> 8
  | Op_rename -> 9
  | Op_readdir -> 10
  | Op_stat -> 11
  | Op_exists -> 12
  | Op_truncate -> 13
  | Op_mmap -> 14
  | Op_munmap -> 15
  | Op_msync -> 16
  | Op_sync_all -> 17
  | Op_unmount -> 18
  | Journal_commit -> 19
  | Journal_recover -> 20
  | Writeback -> 21
  | Buffer_fetch -> 22
  | Flush -> 23
  | Fence -> 24
  | Slot_wait -> 25
  | Nvcache_append -> 26
  | Nvcache_destage -> 27
  | Nvcache_replay -> 28
  | Snapshot_commit -> 29
  | Snapshot_gc -> 30
  | Req_lookup -> 31
  | Req_getattr -> 32
  | Req_read -> 33
  | Req_write -> 34
  | Req_create -> 35
  | Req_remove -> 36
  | Req_rename -> 37
  | Req_commit -> 38
  | Srv_queue -> 39
  | Srv_decode -> 40
  | Srv_encode -> 41
  | Srv_flush -> 42

let all_kinds =
  [
    Op_open; Op_close; Op_read; Op_write; Op_fsync; Op_seek; Op_mkdir;
    Op_rmdir; Op_unlink; Op_rename; Op_readdir; Op_stat; Op_exists;
    Op_truncate; Op_mmap; Op_munmap; Op_msync; Op_sync_all; Op_unmount;
    Journal_commit; Journal_recover; Writeback; Buffer_fetch; Flush; Fence;
    Slot_wait; Nvcache_append; Nvcache_destage; Nvcache_replay;
    Snapshot_commit; Snapshot_gc;
    Req_lookup; Req_getattr; Req_read; Req_write; Req_create; Req_remove;
    Req_rename; Req_commit; Srv_queue; Srv_decode; Srv_encode; Srv_flush;
  ]

let n_kinds = List.length all_kinds

let kind_name = function
  | Op_open -> "op.open"
  | Op_close -> "op.close"
  | Op_read -> "op.read"
  | Op_write -> "op.write"
  | Op_fsync -> "op.fsync"
  | Op_seek -> "op.seek"
  | Op_mkdir -> "op.mkdir"
  | Op_rmdir -> "op.rmdir"
  | Op_unlink -> "op.unlink"
  | Op_rename -> "op.rename"
  | Op_readdir -> "op.readdir"
  | Op_stat -> "op.stat"
  | Op_exists -> "op.exists"
  | Op_truncate -> "op.truncate"
  | Op_mmap -> "op.mmap"
  | Op_munmap -> "op.munmap"
  | Op_msync -> "op.msync"
  | Op_sync_all -> "op.sync_all"
  | Op_unmount -> "op.unmount"
  | Journal_commit -> "journal.commit"
  | Journal_recover -> "journal.recover"
  | Writeback -> "wb.flush"
  | Buffer_fetch -> "wb.fetch"
  | Flush -> "dev.flush"
  | Fence -> "dev.fence"
  | Slot_wait -> "dev.slot_wait"
  | Nvcache_append -> "nvcache.append"
  | Nvcache_destage -> "nvcache.destage"
  | Nvcache_replay -> "nvcache.replay"
  | Snapshot_commit -> "snapshot.commit"
  | Snapshot_gc -> "snapshot.gc"
  | Req_lookup -> "req.lookup"
  | Req_getattr -> "req.getattr"
  | Req_read -> "req.read"
  | Req_write -> "req.write"
  | Req_create -> "req.create"
  | Req_remove -> "req.remove"
  | Req_rename -> "req.rename"
  | Req_commit -> "req.commit"
  | Srv_queue -> "srv.queue"
  | Srv_decode -> "srv.decode"
  | Srv_encode -> "srv.encode"
  | Srv_flush -> "srv.flush"

let ev_name = function
  | Ev_bbm_eager -> "bbm.eager"
  | Ev_bbm_lazy -> "bbm.lazy"
  | Ev_mmap_pin -> "mmap.pin"
  | Ev_mmap_unpin -> "mmap.unpin"
  | Ev_dead_drop -> "buffer.dead_drop"
  | Ev_proc_spawn -> "proc.spawn"
  | Ev_session_expire -> "session.expire"
  | Ev_estale -> "server.estale"
  | Ev_oc_evict -> "server.oc_evict"

type frame = { fkind : kind; t0 : int64 }

type event =
  | Span of { skind : kind; pid : int; t0 : int64; t1 : int64 }
  | Inst of { ekind : ev; pid : int; t : int64; a : int; b : int }
  | Sample of { name : string; t : int64; v : int }

type t = {
  engine : Engine.t;
  trace : bool;
  hists : Hist.t array;
  counters : (string, Hist.t) Hashtbl.t;
  stacks : (int, frame list ref) Hashtbl.t;
  mutable events : event list; (* newest first *)
  mutable n_events : int;
  mutable dropped : int;
  mutable mismatches : int;
  mutable switches : int;
}

(* Trace events kept for export; later ones are counted as dropped. *)
let max_events = 200_000

let create ?(trace = false) engine =
  {
    engine;
    trace;
    hists = Array.init n_kinds (fun _ -> Hist.create ());
    counters = Hashtbl.create 16;
    stacks = Hashtbl.create 16;
    events = [];
    n_events = 0;
    dropped = 0;
    mismatches = 0;
    switches = 0;
  }

let cur : t option ref = ref None

let current () = !cur
let enabled () = match !cur with None -> false | Some _ -> true

let push_event o e =
  if o.n_events >= max_events then o.dropped <- o.dropped + 1
  else begin
    o.events <- e :: o.events;
    o.n_events <- o.n_events + 1
  end

let install o =
  cur := Some o;
  Engine.set_proc_hooks o.engine
    ~on_spawn:(fun pid _name ->
      if o.trace then
        push_event o
          (Inst
             {
               ekind = Ev_proc_spawn;
               pid;
               t = Engine.now o.engine;
               a = pid;
               b = 0;
             }))
    ~on_switch:(fun _pid -> o.switches <- o.switches + 1)

let uninstall () =
  (match !cur with
  | Some o -> Engine.clear_proc_hooks o.engine
  | None -> ());
  cur := None

let stack_of o pid =
  match Hashtbl.find_opt o.stacks pid with
  | Some st -> st
  | None ->
    let st = ref [] in
    Hashtbl.replace o.stacks pid st;
    st

let span_begin kind =
  match !cur with
  | None -> ()
  | Some o ->
    let st = stack_of o (Engine.current_pid o.engine) in
    st := { fkind = kind; t0 = Engine.now o.engine } :: !st

let record_closed o ~kind ~pid ~t0 =
  let t1 = Engine.now o.engine in
  Hist.record o.hists.(kind_index kind) (Int64.to_int (Int64.sub t1 t0));
  if o.trace then push_event o (Span { skind = kind; pid; t0; t1 })

let span_end kind =
  match !cur with
  | None -> ()
  | Some o -> (
    let pid = Engine.current_pid o.engine in
    let st = stack_of o pid in
    match !st with
    | [] -> o.mismatches <- o.mismatches + 1
    | f :: rest ->
      st := rest;
      if f.fkind <> kind then o.mismatches <- o.mismatches + 1;
      record_closed o ~kind ~pid ~t0:f.t0)

let span_since kind ~t0 =
  match !cur with
  | None -> ()
  | Some o ->
    record_closed o ~kind ~pid:(Engine.current_pid o.engine) ~t0

let instant ekind ~a ~b =
  match !cur with
  | None -> ()
  | Some o ->
    if o.trace then
      push_event o
        (Inst
           {
             ekind;
             pid = Engine.current_pid o.engine;
             t = Engine.now o.engine;
             a;
             b;
           })

let counter name v =
  match !cur with
  | None -> ()
  | Some o ->
    let h =
      match Hashtbl.find_opt o.counters name with
      | Some h -> h
      | None ->
        let h = Hist.create () in
        Hashtbl.replace o.counters name h;
        h
    in
    Hist.record h v;
    if o.trace then
      push_event o (Sample { name; t = Engine.now o.engine; v })

let reset o =
  Array.iter Hist.reset o.hists;
  Hashtbl.reset o.counters;
  o.events <- [];
  o.n_events <- 0;
  o.dropped <- 0;
  o.mismatches <- 0;
  o.switches <- 0

let open_spans o =
  Hashtbl.fold (fun _ st acc -> acc + List.length !st) o.stacks 0

let mismatches o = o.mismatches
let dropped_events o = o.dropped
let context_switches o = o.switches

let hist o kind = Hist.summarize o.hists.(kind_index kind)

let nonempty_hists o =
  List.filter_map
    (fun k ->
      let h = o.hists.(kind_index k) in
      if Hist.count h > 0 then Some (k, Hist.summarize h) else None)
    all_kinds

let counter_summaries o =
  Hashtbl.fold (fun name h acc -> (name, Hist.summarize h) :: acc) o.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let start_sampler o ~gauges =
  let period_ns = 1_000_000L in
  let stop = ref false in
  Engine.spawn o.engine ~name:"obs-sampler" (fun () ->
      while not !stop do
        List.iter (fun (name, read) -> counter name (read ())) gauges;
        Proc.delay period_ns
      done);
  fun () -> stop := true

(* --- export --- *)

let us_of_ns ns = Int64.to_float ns /. 1000.0

let chrome_trace o =
  let events = List.rev o.events in
  (* Thread-name metadata for every pid that appears in the trace. *)
  let pids = Hashtbl.create 16 in
  let see pid = if not (Hashtbl.mem pids pid) then Hashtbl.replace pids pid () in
  List.iter
    (function
      | Span { pid; _ } | Inst { pid; _ } -> see pid
      | Sample _ -> ())
    events;
  let meta =
    Hashtbl.fold (fun pid () acc -> pid :: acc) pids []
    |> List.sort compare
    |> List.map (fun pid ->
           Ojson.Obj
             [
               ("ph", Ojson.String "M");
               ("name", Ojson.String "thread_name");
               ("pid", Ojson.Int 0);
               ("tid", Ojson.Int pid);
               ( "args",
                 Ojson.Obj
                   [ ("name", Ojson.String (Engine.proc_name o.engine pid)) ]
               );
             ])
  in
  let of_event = function
    | Span { skind; pid; t0; t1 } ->
      Ojson.Obj
        [
          ("ph", Ojson.String "X");
          ("name", Ojson.String (kind_name skind));
          ("pid", Ojson.Int 0);
          ("tid", Ojson.Int pid);
          ("ts", Ojson.Float (us_of_ns t0));
          ("dur", Ojson.Float (us_of_ns (Int64.sub t1 t0)));
        ]
    | Inst { ekind; pid; t; a; b } ->
      Ojson.Obj
        [
          ("ph", Ojson.String "i");
          ("name", Ojson.String (ev_name ekind));
          ("pid", Ojson.Int 0);
          ("tid", Ojson.Int pid);
          ("ts", Ojson.Float (us_of_ns t));
          ("s", Ojson.String "t");
          ("args", Ojson.Obj [ ("a", Ojson.Int a); ("b", Ojson.Int b) ]);
        ]
    | Sample { name; t; v } ->
      Ojson.Obj
        [
          ("ph", Ojson.String "C");
          ("name", Ojson.String name);
          ("pid", Ojson.Int 0);
          ("tid", Ojson.Int 0);
          ("ts", Ojson.Float (us_of_ns t));
          ("args", Ojson.Obj [ ("value", Ojson.Int v) ]);
        ]
  in
  Ojson.Obj
    [
      ("traceEvents", Ojson.List (meta @ List.map of_event events));
      ("displayTimeUnit", Ojson.String "ns");
      ("droppedEvents", Ojson.Int o.dropped);
    ]
