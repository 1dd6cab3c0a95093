(** Bounded zipfian distribution over [0, n) (YCSB-style).

    [theta = 0] degenerates to uniform; typical skewed workloads use
    [theta] around 0.8–0.99. *)

type t

val create : n:int -> theta:float -> t
(** @raise Invalid_argument unless [n > 0] and [0 <= theta < 1]. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [0, n); rank 0 is the most popular. *)
