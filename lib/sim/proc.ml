(* In-process API: the clock of the running engine and helpers performing
   its effects. Only valid while running inside a process spawned on an
   {!Engine.t}. *)

let now () = Engine.now (Engine.running ())

(* The one place a process's clock moves: in place when no other event can
   come first, else through the event queue. *)
let delay ns =
  if
    Int64.compare ns 0L > 0
    && not (Engine.try_advance (Engine.running ()) (Int64.to_int ns))
  then Effect.perform (Engine.Delay ns)

(* [delay] with no [int64] made unless the delay goes through the queue. *)
let delay_int ns =
  if ns > 0 && not (Engine.try_advance (Engine.running ()) ns) then
    Effect.perform (Engine.Delay (Int64.of_int ns))

let spawn ?(name = "process") f = Effect.perform (Engine.Spawn (name, f))

let suspend register = Effect.perform (Engine.Suspend register)
