(* Table/figure rendering helpers for the benchmark harness. *)

let heading ppf title =
  Fmt.pf ppf "@.==== %s ====@.@." title

let subheading ppf title = Fmt.pf ppf "-- %s --@." title

(* A unit-less horizontal bar for quick visual comparison. *)
let bar value ~max_value ~width =
  if max_value <= 0.0 then ""
  else begin
    let n =
      int_of_float (Float.round (value /. max_value *. float_of_int width))
    in
    String.make (max 0 (min width n)) '#'
  end

(* Print a table: header row then aligned rows of strings. *)
let table ppf ~header rows =
  let columns = List.length header in
  let widths = Array.make columns 0 in
  List.iteri (fun i cell -> widths.(i) <- String.length cell) header;
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if i < columns then widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let print_row row =
    List.iteri
      (fun i cell ->
        if i < columns then Fmt.pf ppf "%-*s  " widths.(i) cell)
      row;
    Fmt.pf ppf "@."
  in
  print_row header;
  Fmt.pf ppf "%s@."
    (String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter print_row rows

(* Per-category persistence-event counters (clflush issued/dirty, mfence)
   from the NVMM device model — the ordering cost the paper's eager-persist
   paths pay. Prints nothing when the run issued no flushes or fences. *)
let persistence ppf stats =
  let module Stats = Hinfs_stats.Stats in
  if
    Stats.total_clflush_issued stats > 0 || Stats.total_mfences stats > 0
  then begin
    subheading ppf "persistence events";
    let rows =
      List.filter_map
        (fun cat ->
          let issued = Stats.clflush_issued stats cat in
          let dirty = Stats.clflush_dirty stats cat in
          let fences = Stats.mfences stats cat in
          if issued = 0 && fences = 0 then None
          else
            Some
              [
                Stats.category_name cat;
                string_of_int issued;
                string_of_int dirty;
                string_of_int fences;
              ])
        Stats.categories
    in
    let rows =
      rows
      @ [
          [
            "total";
            string_of_int (Stats.total_clflush_issued stats);
            string_of_int (Stats.total_clflush_dirty stats);
            string_of_int (Stats.total_mfences stats);
          ];
        ]
    in
    table ppf ~header:[ "category"; "clflush"; "dirty"; "mfence" ] rows
  end

(* Block-layer request counters from NVMMBD: bios issued (reads/writes)
   and writes absorbed by an attached durability tier instead of becoming
   requests. Prints nothing when no block device was involved. *)
let block_layer ppf stats =
  let module Stats = Hinfs_stats.Stats in
  let reads = Stats.block_read_requests stats in
  let writes = Stats.block_write_requests stats in
  let absorbed = Stats.block_absorbed_writes stats in
  if reads > 0 || writes > 0 || absorbed > 0 then begin
    subheading ppf "block layer";
    table ppf
      ~header:[ "read-reqs"; "write-reqs"; "absorbed" ]
      [ [ string_of_int reads; string_of_int writes; string_of_int absorbed ] ]
  end

(* Media-fault counters (injected faults, retries, repairs, checksum
   mismatches). Prints nothing on a fault-free run, which is the common
   case — the fault model is off by default. *)
let media ppf stats =
  let module Stats = Hinfs_stats.Stats in
  if
    Stats.total_media_faults stats > 0
    || Stats.media_retries stats > 0
    || Stats.scrub_repairs stats > 0
    || Stats.crc_mismatches stats > 0
  then begin
    subheading ppf "media faults";
    table ppf
      ~header:[ "transient"; "poison"; "retries"; "repairs"; "crc-bad" ]
      [
        [
          string_of_int (Stats.media_faults_transient stats);
          string_of_int (Stats.media_faults_poison stats);
          string_of_int (Stats.media_retries stats);
          string_of_int (Stats.scrub_repairs stats);
          string_of_int (Stats.crc_mismatches stats);
        ];
      ]
  end

(* Mount-time recovery counters (recovery passes run, transactions rolled
   back, unusable journal records dropped). Prints nothing when every mount
   in the run was clean. *)
let recovery ppf stats =
  let module Stats = Hinfs_stats.Stats in
  if Stats.recoveries stats > 0 then begin
    subheading ppf "log recovery";
    table ppf
      ~header:[ "recoveries"; "rolled-back"; "dropped" ]
      [
        [
          string_of_int (Stats.recoveries stats);
          string_of_int (Stats.recovered_txns stats);
          string_of_int (Stats.recovery_dropped stats);
        ];
      ]
  end

(* Latency histograms from an observability sink: one row per span kind
   with at least one sample. All values are virtual nanoseconds. *)
let latency ppf obs =
  let module Obs = Hinfs_obs.Obs in
  let module Hist = Hinfs_obs.Hist in
  match Obs.nonempty_hists obs with
  | [] -> ()
  | hists ->
    subheading ppf "latency (virtual ns)";
    table ppf
      ~header:[ "span"; "count"; "p50"; "p90"; "p99"; "p999"; "max"; "mean" ]
      (List.map
         (fun (k, s) ->
           [
             Obs.kind_name k;
             string_of_int s.Hist.count;
             string_of_int s.Hist.p50;
             string_of_int s.Hist.p90;
             string_of_int s.Hist.p99;
             string_of_int s.Hist.p999;
             string_of_int s.Hist.max;
             Fmt.str "%.1f" s.Hist.mean;
           ])
         hists)

(* Sampled-gauge statistics (write-buffer occupancy, journal free entries,
   bandwidth-slot utilisation, ...) from the periodic sampler. *)
let gauges ppf obs =
  let module Obs = Hinfs_obs.Obs in
  let module Hist = Hinfs_obs.Hist in
  match Obs.counter_summaries obs with
  | [] -> ()
  | counters ->
    subheading ppf "sampled gauges";
    table ppf
      ~header:[ "gauge"; "samples"; "min"; "mean"; "max" ]
      (List.map
         (fun (name, s) ->
           [
             name;
             string_of_int s.Hist.count;
             string_of_int s.Hist.min;
             Fmt.str "%.1f" s.Hist.mean;
             string_of_int s.Hist.max;
           ])
         counters)

let f1 v = Fmt.str "%.1f" v
let f2 v = Fmt.str "%.2f" v
let f0 v = Fmt.str "%.0f" v
let ms ns = Fmt.str "%.2f" (Int64.to_float ns /. 1e6)
