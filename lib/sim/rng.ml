(* Deterministic pseudo-random number generator (splitmix64).

   Every workload generator owns its own Rng seeded from the experiment
   configuration, so runs are reproducible bit-for-bit regardless of how
   processes interleave. *)

type t = { mutable state : int64 }

let create ~seed = { state = seed }

let golden_gamma = 0x9E3779B97F4A7C15L

let next_int64 t =
  let open Int64 in
  t.state <- add t.state golden_gamma;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

let float t =
  (* 53 uniform bits scaled into [0, 1). *)
  float_of_int (bits53 t) /. 9007199254740992.0

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     bounds used (all far below 2^53). *)
  bits53 t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let chance t p = float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
