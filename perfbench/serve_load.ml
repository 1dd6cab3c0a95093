(* Open-loop load for the serving layer.

   One generator fiber draws Poisson arrivals at a fixed offered rate and
   hands each request to a session picked uniformly at random. A session
   runs its requests in arrival order, one at a time, like an NFS client
   with one call in flight, so the load never waits for the server: each
   request is timed from its due time, and a stall counts against every
   request queued behind it. The op mix and the paths follow
   Hinfs_server.Clients: 55% READ (zipf over the hot set), 25% WRITE to the
   session's own file with every 4th one stable, 8% GETATTR, 5% COMMIT,
   4% CREATE/REMOVE of a scratch file and 3% RENAME of it.

   Every Server.rpc goes through [rpc], which times it per request kind
   and claims the vfs calls the serving worker made for it, so that per
   request: rpc time = server self time + vfs time beneath it. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Zipf = Hinfs_sim.Zipf
module Errno = Hinfs_vfs.Errno
module Server = Hinfs_server.Server
module Clients = Hinfs_server.Clients
module Wire = Hinfs_server.Wire
module Samples = Probe.Samples
module Spans = Probe.Spans

type op =
  | Read_hot of int * int  (** hot file, offset *)
  | Write_own
  | Getattr_hot of int
  | Commit_own
  | Churn  (** CREATE or REMOVE of the session's scratch file *)
  | Rename_scratch

let op_name = function
  | Read_hot _ -> "READ"
  | Write_own -> "WRITE"
  | Getattr_hot _ -> "GETATTR"
  | Commit_own -> "COMMIT"
  | Churn -> "CREATE/REMOVE"
  | Rename_scratch -> "RENAME"

(* One stretch of arrivals at one offered rate. *)
type phase = {
  warm_end : int64;  (** requests due before this are warm-up *)
  stop : int64;  (** no arrivals from here on *)
  lat : Samples.t;  (** measured requests, from due time to reply *)
  sync : Samples.t;  (** the stable WRITEs among them *)
  mutable offered : int;  (** arrivals due in [warm_end, stop) *)
  mutable measured_done : int;
  mutable completed : int;  (** replies that arrived in [warm_end, stop) *)
}

type job = { due : int64; op : op; ph : phase }

type session = {
  idx : int;
  mutable sid : int;
  fhs : (string, Wire.fh) Hashtbl.t;  (** client-side handle cache *)
  mutable writes : int;
  mutable flip : bool;
  mutable live : bool;  (** the scratch file exists *)
  q : job Queue.t;
  mutable idle : unit Engine.waker option;
}

let kind_index : Wire.req -> int = function
  | Lookup _ -> 0
  | Getattr _ -> 1
  | Read _ -> 2
  | Write _ -> 3
  | Create _ -> 4
  | Remove _ -> 5
  | Rename _ -> 6
  | Commit _ -> 7

let kind_names =
  [| "lookup"; "getattr"; "read"; "write"; "create"; "remove"; "rename"; "commit" |]

type t = {
  engine : Engine.t;
  srv : Server.t;
  cfg : Clients.config;
  vfs : Probe.t;
  spans : Spans.t;
  rng : Rng.t;
  zipf : Zipf.t;
  sessions : session array;
  mutable stopping : bool;
  mutable outstanding : int;
  mutable drained : unit Engine.waker option;
  mutable on : bool;  (** rpc metrics are being counted *)
  rpc_lat : Samples.t array;  (** per request kind *)
  mutable rpc_ns : int;
  mutable child_ns : int;  (** vfs time claimed under those rpcs *)
  mutable queue_max : int;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  mutable identity_errors : int;
  mutable lag_max : int64;
}

let fill_char i = Char.chr (97 + (i mod 26))
let wake_opt = function Some w -> ignore (Engine.wake w ()) | None -> ()

(* The vfs calls a worker made for the rpc that just returned. A worker
   serves one request at a time: it decodes the request, runs its vfs
   calls back to back, encodes the reply and wakes the client, so its
   calls for one request form one contiguous segment that starts at least
   one request decode after the rpc was sent and ends exactly one reply
   encode before the client resumes. The segment of the worker that
   matches both claims the rpc; an rpc served without a vfs call claims
   nothing. *)
let claim st ~t0 ~t1 req reply =
  let decode_ns =
    Int64.of_int (Server.codec_ns (Bytes.length (Wire.encode_req req)))
  in
  let encode_ns =
    Int64.of_int (Server.codec_ns (Bytes.length (Wire.encode_reply reply)))
  in
  let fits pid (calls : Probe.call list) best =
    match (calls, List.rev calls) with
    | last :: _, first :: _
      when Int64.equal (Int64.add last.t1 encode_ns) t1
           && Int64.compare first.t0 (Int64.add t0 decode_ns) >= 0 -> (
      match best with Some (p, _) when p < pid -> best | _ -> Some (pid, calls))
    | _ -> best
  in
  match Hashtbl.fold fits st.vfs.Probe.pending None with
  | None -> []
  | Some (pid, calls) ->
    Hashtbl.remove st.vfs.Probe.pending pid;
    List.rev calls

let rpc st s ~req_id req =
  let t0 = Engine.now st.engine in
  let depth = Server.queue_depth st.srv in
  let reply = Server.rpc st.srv ~sid:s.sid req in
  let t1 = Engine.now st.engine in
  let calls = claim st ~t0 ~t1 req reply in
  let d = Int64.to_int (Int64.sub t1 t0) in
  let child =
    List.fold_left
      (fun acc (c : Probe.call) -> acc + Int64.to_int (Int64.sub c.t1 c.t0))
      0 calls
  in
  if child > d then st.identity_errors <- st.identity_errors + 1;
  if st.on then begin
    Samples.add st.rpc_lat.(kind_index req) d;
    st.rpc_ns <- st.rpc_ns + d;
    st.child_ns <- st.child_ns + child;
    if depth > st.queue_max then st.queue_max <- depth
  end;
  if st.spans.Spans.on then begin
    let id = Spans.fresh st.spans in
    Spans.add st.spans ~id
      ~name:("rpc." ^ kind_names.(kind_index req))
      ~pid:(Engine.current_pid st.engine) ~t0 ~t1 ~parent:req_id ~req:req_id;
    List.iter
      (fun (c : Probe.call) ->
        Spans.add st.spans ~id:(Spans.fresh st.spans)
          ~name:Probe.span_names.(Probe.cls_index c.cls)
          ~pid:c.pid ~t0:c.t0 ~t1:c.t1 ~parent:id ~req:req_id)
      calls
  end;
  reply

(* An R_expired reply means the lease lapsed: re-establish and retry, as
   Clients does. *)
let rec rpc_sess st s ~req_id req attempts =
  match rpc st s ~req_id req with
  | Wire.R_expired when attempts > 0 ->
    s.sid <- Server.establish st.srv;
    rpc_sess st s ~req_id req (attempts - 1)
  | reply -> reply

let lookup st s ~req_id path =
  match Hashtbl.find_opt s.fhs path with
  | Some fh -> Ok fh
  | None -> (
    match rpc_sess st s ~req_id (Wire.Lookup path) 3 with
    | Wire.R_handle (fh, _) ->
      Hashtbl.replace s.fhs path fh;
      Ok fh
    | reply -> Error reply)

(* A handle-based request, recovering from ESTALE with a fresh LOOKUP. *)
let rec call st s ~req_id path req attempts =
  match lookup st s ~req_id path with
  | Error reply -> reply
  | Ok fh -> (
    match rpc_sess st s ~req_id (req fh) 3 with
    | Wire.R_err Errno.ESTALE when attempts > 0 ->
      Hashtbl.remove s.fhs path;
      call st s ~req_id path req (attempts - 1)
    | reply -> reply)

let is_ok = function Wire.R_ok _ -> true | _ -> false

let commit_own st s ~req_id =
  let reply =
    call st s ~req_id (Clients.own_path st.cfg s.idx) (fun fh -> Wire.Commit fh) 2
  in
  (is_ok reply, false)

(* Run one request; returns whether its reply was right and whether it
   was a durability point, that is a stable WRITE. (A COMMIT is durable
   too, but most find nothing unstable to flush: mixing those ~1.5 us
   replies with the ~14 us stable writes would put the median on the
   boundary between two clusters; COMMIT has its own per-layer p99.) READ
   payloads are checked against the bytes Clients.setup wrote into the hot
   files. *)
let exec st s ~req_id op =
  let cfg = st.cfg in
  let io = cfg.Clients.io_bytes in
  match op with
  | Read_hot (j, off) -> (
    let reply =
      call st s ~req_id (Clients.hot_path cfg j)
        (fun fh -> Wire.Read (fh, off, io))
        2
    in
    match reply with
    | Wire.R_data data ->
      ( String.length data = min io ((2 * io) - off)
        && String.for_all (fun c -> c = 'h') data,
        false )
    | _ -> (false, false))
  | Write_own -> (
    s.writes <- s.writes + 1;
    let stable = s.writes mod cfg.stable_every = 0 in
    let off = s.writes * io mod cfg.file_span in
    let data = String.make io (fill_char s.idx) in
    let reply =
      call st s ~req_id (Clients.own_path cfg s.idx)
        (fun fh -> Wire.Write (fh, off, data, stable))
        2
    in
    match reply with
    | Wire.R_written (n, _) -> (n = io, stable)
    | _ -> (false, stable))
  | Getattr_hot j -> (
    match
      call st s ~req_id (Clients.hot_path cfg j) (fun fh -> Wire.Getattr fh) 2
    with
    | Wire.R_attr _ -> (true, false)
    | _ -> (false, false))
  | Commit_own -> commit_own st s ~req_id
  | Churn ->
    (* as Clients.churn: drop the handle cache, then remove or re-create
       the scratch file *)
    Hashtbl.reset s.fhs;
    let path = Clients.scratch_path cfg s.idx s.flip in
    if s.live then begin
      let ok = is_ok (rpc_sess st s ~req_id (Wire.Remove path) 3) in
      if ok then s.live <- false;
      (ok, false)
    end
    else begin
      match rpc_sess st s ~req_id (Wire.Create path) 3 with
      | Wire.R_handle _ ->
        s.live <- true;
        (true, false)
      | _ -> (false, false)
    end
  | Rename_scratch ->
    if s.live then begin
      let src = Clients.scratch_path cfg s.idx s.flip in
      let dst = Clients.scratch_path cfg s.idx (not s.flip) in
      let ok = is_ok (rpc_sess st s ~req_id (Wire.Rename (src, dst)) 3) in
      if ok then begin
        s.flip <- not s.flip;
        Hashtbl.remove s.fhs src
      end;
      (ok, false)
    end
    else commit_own st s ~req_id

let finish st s job ~req_id ~ok ~sync =
  let t1 = Engine.now st.engine in
  let ph = job.ph in
  st.attempted <- st.attempted + 1;
  if not ok then begin
    st.failed <- st.failed + 1;
    if List.length st.notes < 5 then
      st.notes <-
        Fmt.str "session %d: %s due at %Ld ns got a wrong reply" s.idx
          (op_name job.op) job.due
        :: st.notes
  end;
  if Int64.compare job.due ph.warm_end >= 0 then begin
    let lat = Int64.to_int (Int64.sub t1 job.due) in
    ph.measured_done <- ph.measured_done + 1;
    Samples.add ph.lat lat;
    if sync then Samples.add ph.sync lat
  end;
  if Int64.compare t1 ph.warm_end >= 0 && Int64.compare t1 ph.stop < 0 then
    ph.completed <- ph.completed + 1;
  Spans.add st.spans ~id:req_id ~name:"req"
    ~pid:(Engine.current_pid st.engine) ~t0:job.due ~t1 ~parent:(-1)
    ~req:req_id;
  st.outstanding <- st.outstanding - 1;
  if st.outstanding = 0 then begin
    let w = st.drained in
    st.drained <- None;
    wake_opt w
  end

let rec session_loop st s =
  match Queue.take_opt s.q with
  | Some job ->
    let req_id = Spans.fresh st.spans in
    let ok, sync = exec st s ~req_id job.op in
    finish st s job ~req_id ~ok ~sync;
    session_loop st s
  | None ->
    if not st.stopping then begin
      Proc.suspend (fun w -> s.idle <- Some w);
      session_loop st s
    end

(* Establish one session per client and start its fiber. Call from inside
   a simulation process, after the server has started. *)
let create engine srv cfg vfs spans ~seed =
  let sessions =
    Array.init cfg.Clients.clients (fun idx ->
        {
          idx;
          sid = Server.establish srv;
          fhs = Hashtbl.create 8;
          writes = 0;
          flip = false;
          live = false;
          q = Queue.create ();
          idle = None;
        })
  in
  let st =
    {
      engine;
      srv;
      cfg;
      vfs;
      spans;
      rng = Rng.create ~seed;
      zipf = Zipf.create ~n:cfg.hot_files ~theta:cfg.theta;
      sessions;
      stopping = false;
      outstanding = 0;
      drained = None;
      on = false;
      rpc_lat = Array.map (fun _ -> Samples.create ()) kind_names;
      rpc_ns = 0;
      child_ns = 0;
      queue_max = 0;
      attempted = 0;
      failed = 0;
      notes = [];
      identity_errors = 0;
      lag_max = 0L;
    }
  in
  Array.iter
    (fun s ->
      Proc.spawn ~name:(Fmt.str "session%d" s.idx) (fun () -> session_loop st s))
    sessions;
  st

let arrival st ph due =
  let r = Rng.float st.rng in
  let op =
    if r < 0.55 then begin
      let j = Zipf.sample st.zipf st.rng in
      Read_hot (j, Rng.int st.rng (st.cfg.Clients.io_bytes + 1))
    end
    else if r < 0.80 then Write_own
    else if r < 0.88 then Getattr_hot (Zipf.sample st.zipf st.rng)
    else if r < 0.93 then Commit_own
    else if r < 0.97 then Churn
    else Rename_scratch
  in
  let s = st.sessions.(Rng.int st.rng (Array.length st.sessions)) in
  if Int64.compare due ph.warm_end >= 0 then ph.offered <- ph.offered + 1;
  st.outstanding <- st.outstanding + 1;
  Queue.add { due; op; ph } s.q;
  let w = s.idle in
  s.idle <- None;
  wake_opt w

let drain st =
  if st.outstanding > 0 then Proc.suspend (fun w -> st.drained <- Some w)

let delay_until st t =
  let now = Engine.now st.engine in
  if Int64.compare t now > 0 then Proc.delay (Int64.sub t now)

(* Offer Poisson arrivals at [rate] per virtual second for [warm_ns +
   measure_ns]; report whether every measured request had its reply
   [grace_ns] after the last arrival, then let the rest drain. [window]
   runs its callbacks at the start and at the end of the measured part. *)
let run_phase ?(window = (ignore, ignore)) st ~rate ~warm_ns ~measure_ns
    ~grace_ns =
  let start = Engine.now st.engine in
  let warm_end = Int64.add start warm_ns in
  let ph =
    {
      warm_end;
      stop = Int64.add warm_end measure_ns;
      lat = Samples.create ();
      sync = Samples.create ();
      offered = 0;
      measured_done = 0;
      completed = 0;
    }
  in
  let on_start, on_stop = window in
  Proc.spawn ~name:"window" (fun () ->
      delay_until st ph.warm_end;
      on_start ph;
      delay_until st ph.stop;
      on_stop ph);
  let mean_gap = 1e9 /. rate in
  let gap () = -.mean_gap *. log (1.0 -. Rng.float st.rng) in
  let rec loop t =
    let due = Int64.of_float t in
    if Int64.compare due ph.stop < 0 then begin
      delay_until st due;
      let lag = Int64.sub (Engine.now st.engine) due in
      if Int64.compare lag st.lag_max > 0 then st.lag_max <- lag;
      arrival st ph due;
      loop (t +. gap ())
    end
  in
  loop (Int64.to_float start +. gap ());
  delay_until st (Int64.add ph.stop grace_ns);
  let drained = ph.measured_done = ph.offered in
  drain st;
  (ph, drained)

type rung = {
  rate : float;
  offered_rps : float;
  achieved_rps : float;
  p99_ns : float;
  drained : bool;
  meets_slo : bool;
}

let rung ~rate ~measure_ns ~slo_p99_ns (ph, drained) =
  let secs = Int64.to_float measure_ns /. 1e9 in
  let offered_rps = float_of_int ph.offered /. secs in
  let achieved_rps = float_of_int ph.completed /. secs in
  let p99_ns = Samples.quantile (Samples.sorted ph.lat) 0.99 in
  {
    rate;
    offered_rps;
    achieved_rps;
    p99_ns;
    drained;
    meets_slo =
      drained && p99_ns <= slo_p99_ns && achieved_rps >= 0.99 *. offered_rps;
  }

(* Climb the rate ladder up to the first rung that misses the SLO, then
   bisect between the last rate that meets it and the first that does not
   until they are within [resolution] of each other. Returns every rung
   run, in order, and the highest rate found to meet the SLO (0 if the
   first rung misses it; the top rung if none does). *)
let ladder st ~rates ~resolution ~warm_ns ~measure_ns ~grace_ns ~slo_p99_ns =
  let try_rate rate =
    rung ~rate ~measure_ns ~slo_p99_ns
      (run_phase st ~rate ~warm_ns ~measure_ns ~grace_ns)
  in
  let rec bisect acc lo hi =
    if hi -. lo <= resolution *. lo then (List.rev acc, lo)
    else
      let r = try_rate ((lo +. hi) /. 2.0) in
      if r.meets_slo then bisect (r :: acc) r.rate hi
      else bisect (r :: acc) lo r.rate
  in
  let rec climb acc lo = function
    | [] -> (List.rev acc, lo)
    | rate :: rest ->
      let r = try_rate rate in
      if r.meets_slo then climb (r :: acc) rate rest
      else if lo > 0.0 then bisect (r :: acc) lo rate
      else (List.rev (r :: acc), 0.0)
  in
  climb [] 0.0 rates

let stop st =
  drain st;
  st.stopping <- true;
  Array.iter
    (fun s ->
      let w = s.idle in
      s.idle <- None;
      wake_opt w)
    st.sessions
