(* Condition variable for simulation processes.

   The writeback daemons sleep on one of these: they are woken either by a
   low-watermark signal from the allocation path or by their own periodic
   timer, whichever fires first (wait_timeout). A signalled timed wait
   cancels its timer, so the event queue never holds it as a dead event. *)

type outcome = Signaled | Timed_out

(* A queued waiter, with the timer of a timed wait. *)
type waiter = { waker : outcome Engine.waker; timer : Engine.timer option }

type t = {
  engine : Engine.t;
  waiters : waiter Queue.t;
}

let create engine = { engine; waiters = Queue.create () }

let live w = not (Engine.is_fired w.waker)

let waiting t =
  Queue.fold (fun acc w -> if live w then acc + 1 else acc) 0 t.waiters

let queued t = Queue.length t.waiters

(* Queue [w] behind the live waiters, dropping those a timeout already
   fired: otherwise a condvar that is rarely signalled would keep one per
   timeout. *)
let enqueue t w =
  for _ = 1 to Queue.length t.waiters do
    let v = Queue.take t.waiters in
    if live v then Queue.add v t.waiters
  done;
  Queue.add w t.waiters

let wait t =
  match Proc.suspend (fun waker -> enqueue t { waker; timer = None }) with
  | Signaled -> ()
  | Timed_out -> assert false

let wait_timeout t ~timeout =
  if Int64.compare timeout 0L <= 0 then Timed_out
  else
    Proc.suspend (fun waker ->
        let timer =
          Engine.timer t.engine timeout (fun () ->
              ignore (Engine.wake waker Timed_out))
        in
        enqueue t { waker; timer = Some timer })

(* Wake [w] if it is still live, cancelling its timer. *)
let wake_signaled t w =
  let woken = Engine.wake w.waker Signaled in
  if woken then Option.iter (Engine.cancel t.engine) w.timer;
  woken

(* Pop waiters until one is actually woken (skipping those that already
   timed out). Returns true if a live waiter was signaled. *)
let signal t =
  let rec loop () =
    match Queue.take_opt t.waiters with
    | None -> false
    | Some w -> wake_signaled t w || loop ()
  in
  loop ()

let broadcast t =
  let n = ref 0 in
  let rec loop () =
    match Queue.take_opt t.waiters with
    | None -> ()
    | Some w ->
      if wake_signaled t w then incr n;
      loop ()
  in
  loop ();
  !n
