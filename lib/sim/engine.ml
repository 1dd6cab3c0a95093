(* Discrete-event simulation engine.

   Processes are cooperative fibers implemented with OCaml 5 effect handlers.
   A process performs [Delay]/[Suspend] effects to give up control; the
   engine resumes it from the event queue when its wakeup time arrives (or
   when some other process wakes it explicitly through a {!waker}). A
   delay after which the process would be the next event anyway moves the
   clock in place instead ([try_advance]), and the clock is read without
   an effect ([running]).

   The engine is strictly single-threaded and deterministic: events with the
   same virtual timestamp fire in the order they were scheduled. *)

type waker_state = Waiting | Fired

type 'a waker = {
  mutable state : waker_state;
  mutable resume : 'a -> unit;
}

type _ Effect.t +=
  | Delay : int64 -> unit Effect.t
  | Spawn : (string * (unit -> unit)) -> unit Effect.t
  | Suspend : ('a waker -> unit) -> 'a Effect.t

type t = {
  mutable clock : int; (* the virtual time, ns *)
  mutable now : int64;
      (* [clock] boxed, as [now] last read it: a clock moved in place
         allocates nothing until someone reads it as an [int64]. *)
  mutable seq : int;
  events : (unit -> unit) Heap.t;
  mutable fatal : (exn * Printexc.raw_backtrace) option;
  mutable live_processes : int;
  (* Process identity: pids are assigned in spawn order, which is itself
     deterministic, so pids are stable across identical runs. Pid 0 is the
     engine / main context. *)
  mutable next_pid : int;
  mutable cur_pid : int;
  names : (int, string) Hashtbl.t;
  mutable on_spawn : int -> string -> unit;
  mutable on_switch : int -> unit;
}

exception Stopped

let no_spawn (_ : int) (_ : string) = ()
let no_switch (_ : int) = ()

let create () =
  let names = Hashtbl.create 16 in
  Hashtbl.replace names 0 "engine";
  {
    clock = 0;
    now = 0L;
    seq = 0;
    events = Heap.create ();
    fatal = None;
    live_processes = 0;
    next_pid = 1;
    cur_pid = 0;
    names;
    on_spawn = no_spawn;
    on_switch = no_switch;
  }

let now t =
  if Int64.to_int t.now <> t.clock then t.now <- Int64.of_int t.clock;
  t.now

let live_processes t = t.live_processes

let current_pid t = t.cur_pid

let proc_name t pid =
  match Hashtbl.find_opt t.names pid with
  | Some n -> n
  | None -> "process"

let set_proc_hooks t ~on_spawn ~on_switch =
  t.on_spawn <- on_spawn;
  t.on_switch <- on_switch

let clear_proc_hooks t =
  t.on_spawn <- no_spawn;
  t.on_switch <- no_switch

(* Restore [pid] as the running process. Called at every point where a fiber
   (re)gains control, so [current_pid] is accurate from inside any process. *)
let set_current t pid =
  if t.cur_pid <> pid then begin
    t.cur_pid <- pid;
    t.on_switch pid
  end

type timer = (unit -> unit) Heap.entry

let schedule t time thunk =
  if Int64.compare time (now t) < 0 then
    invalid_arg "Engine.at: time is in the past";
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.add t.events ~time ~seq thunk

let at t time thunk = ignore (schedule t time thunk)

let after t delay thunk = at t (Int64.add (now t) delay) thunk

(* A cancelled timer's event leaves the queue at once instead of staying
   until its time as a dead event. It took its [seq] at insertion, so
   cancelling it reorders no other event. *)
let timer t delay thunk = schedule t (Int64.add (now t) delay) thunk

let cancel t timer = Heap.remove t.events timer

let pending t = Heap.length t.events

let wake w v =
  match w.state with
  | Fired -> false
  | Waiting ->
    w.state <- Fired;
    w.resume v;
    true

let is_fired w = w.state = Fired

(* Run [f] as a fiber under the engine's effect handler. Any effect the
   fiber performs that suspends it schedules the continuation back through
   the event queue. *)
let rec exec : t -> string -> (unit -> unit) -> unit =
 fun t name f ->
  let open Effect.Deep in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  Hashtbl.replace t.names pid name;
  t.on_spawn pid name;
  t.live_processes <- t.live_processes + 1;
  set_current t pid;
  match_with f ()
    {
      retc = (fun () -> t.live_processes <- t.live_processes - 1);
      exnc =
        (fun e ->
          t.live_processes <- t.live_processes - 1;
          let bt = Printexc.get_raw_backtrace () in
          (match e with
          | Stopped -> ()
          | _ -> if t.fatal = None then t.fatal <- Some (e, bt)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
            Some
              (fun (k : (a, unit) continuation) ->
                if Int64.compare d 0L < 0 then
                  discontinue k (Invalid_argument "Engine: negative delay")
                else
                  after t d (fun () ->
                      set_current t pid;
                      resume_or_kill t k))
          | Spawn (child_name, body) ->
            Some
              (fun (k : (a, unit) continuation) ->
                at t (now t) (fun () -> exec t child_name body);
                continue k ())
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let w =
                  {
                    state = Waiting;
                    resume =
                      (fun v ->
                        at t (now t) (fun () ->
                            set_current t pid;
                            resume_value t k v));
                  }
                in
                register w)
          | _ -> None);
    }

and resume_or_kill : t -> (unit, unit) Effect.Deep.continuation -> unit =
 fun t k ->
  if t.fatal <> None then Effect.Deep.discontinue k Stopped
  else Effect.Deep.continue k ()

and resume_value : type a. t -> (a, unit) Effect.Deep.continuation -> a -> unit
    =
 fun t k v ->
  if t.fatal <> None then Effect.Deep.discontinue k Stopped
  else Effect.Deep.continue k v

let spawn t ?(name = "process") f = at t (now t) (fun () -> exec t name f)

let step t =
  match Heap.pop t.events with
  | None -> false
  | Some { time; payload = thunk; _ } ->
    t.clock <- Int64.to_int time;
    t.now <- time;
    (* Plain [at] thunks run in engine context; process resumptions restore
       their own pid immediately. *)
    set_current t 0;
    thunk ();
    true

(* The engine whose [run] is innermost on the stack: the one whose
   processes are running. *)
let current : t option ref = ref None

let running () =
  match !current with
  | Some t -> t
  | None -> invalid_arg "Engine: no simulation running"

(* A process delaying by [d] resumes as the next event when every queued
   event is due strictly after [now + d]: popping it would only set the
   clock. An event due at exactly [now + d] was queued first, so it runs
   first and the delay goes through the queue. *)
let try_advance t d =
  let until = t.clock + d in
  d > 0
  && t.cur_pid <> 0
  && t.fatal = None
  && Heap.all_after t.events until
  && begin
    t.clock <- until;
    true
  end

let run t =
  let outer = !current in
  current := Some t;
  let rec loop () = if t.fatal = None && step t then loop () in
  Fun.protect ~finally:(fun () -> current := outer) loop;
  match t.fatal with
  | None -> ()
  | Some (e, bt) ->
    t.fatal <- None;
    Printexc.raise_with_backtrace e bt
