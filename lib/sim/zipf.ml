(* Bounded zipfian sampler (Gray et al., as popularised by YCSB).

   Used by workload generators to produce the skewed access patterns the
   paper relies on ("a large majority of file system workloads show strong
   locality and high I/O skewness", §3.2). *)

type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  half_pow_theta : float;
}

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be > 0";
  if theta < 0.0 || theta >= 1.0 then
    invalid_arg "Zipf.create: theta must be in [0, 1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta; half_pow_theta = Float.pow 0.5 theta }

let sample t rng =
  let u = Rng.float rng in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. t.half_pow_theta then 1
  else begin
    let v =
      float_of_int t.n
      *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
    in
    let i = int_of_float v in
    if i >= t.n then t.n - 1 else if i < 0 then 0 else i
  end
