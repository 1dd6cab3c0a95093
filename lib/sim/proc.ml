(* In-process API: helpers performing the engine's effects. Only valid while
   running inside a process spawned on an {!Engine.t}. *)

let now () = Effect.perform Engine.Now

let delay ns =
  if Int64.compare ns 0L > 0 then Effect.perform (Engine.Delay ns)

let delay_int ns = delay (Int64.of_int ns)

let spawn ?(name = "process") f = Effect.perform (Engine.Spawn (name, f))

let suspend register = Effect.perform (Engine.Suspend register)
