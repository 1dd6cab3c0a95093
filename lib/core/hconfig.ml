(* HiNFS tuning knobs, with the paper's defaults (§3.2, §3.3.2).

   [clfw] and [checker] exist for the paper's own ablations:
   - clfw = false      -> HiNFS-NCLFW (block-granular fetch/writeback, Fig 9)
   - checker = false   -> HiNFS-WB (buffer everything, Fig 12/13) *)

type t = {
  buffer_bytes : int; (* DRAM write buffer capacity *)
  low_watermark : float; (* wake writeback below this free fraction (5%) *)
  high_watermark : float; (* reclaim until this free fraction (20%) *)
  flush_interval_ns : int64; (* periodic writeback period (5 s) *)
  age_flush_ns : int64; (* flush blocks dirty for longer than this (30 s) *)
  eager_decay_ns : int64; (* Eager -> Lazy after this long without sync (5 s) *)
  writeback_threads : int;
  clfw : bool; (* Cacheline Level Fetch/Writeback *)
  checker : bool; (* Eager-Persistent Write Checker + Buffer Benefit Model *)
}

let default =
  {
    buffer_bytes = 64 * 1024 * 1024;
    low_watermark = 0.05;
    high_watermark = 0.20;
    flush_interval_ns = 5_000_000_000L;
    age_flush_ns = 30_000_000_000L;
    eager_decay_ns = 5_000_000_000L;
    writeback_threads = 4;
    clfw = true;
    checker = true;
  }

let validate t =
  if t.buffer_bytes <= 0 then invalid_arg "Hconfig: buffer_bytes must be > 0";
  if not (t.low_watermark > 0.0 && t.low_watermark < t.high_watermark
          && t.high_watermark < 1.0)
  then invalid_arg "Hconfig: need 0 < low_watermark < high_watermark < 1";
  if t.writeback_threads < 1 then
    invalid_arg "Hconfig: writeback_threads must be >= 1";
  t
