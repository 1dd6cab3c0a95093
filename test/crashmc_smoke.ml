(* crashmc smoke suite: run every scenario with a fixed seed and a bounded
   image budget, and enforce the acceptance bar:
   - >= 1000 distinct crash images explored across PMFS and HiNFS workloads;
     at the default seed, exactly the counts perfbench/selftest.py pins
     (319 states, 2593 images, 682 recovery images), so a change that moves
     them fails here in seconds,
   - zero invariant/durability violations on the real code,
   - the injected missing-fence fixture IS flagged (checker not vacuous),
   - fully deterministic given the seed.

   Wired into `dune runtest` through the crashmc-smoke alias; also runnable
   directly: dune exec test/crashmc_smoke.exe *)

module Crashmc = Hinfs_crashmc.Crashmc
module Soak = Testkit.Soak

let params =
  {
    Crashmc.seed = 42L;
    k_exhaustive = 10;
    samples_per_state = 28;
    max_images_per_state = 96;
    max_states = 40;
    recrash_states = 4;
    recrash_samples = 3;
    recrash_checks = 48;
  }

let () =
  Soak.crashmc "crashmc-smoke" params (fun soak report ->
      let states = Crashmc.total_states report in
      let images = Crashmc.total_images report in
      let rimages = Crashmc.total_recovery_images report in
      let pinned = Soak.seed soak = params.Crashmc.seed in
      if pinned && (states, images, rimages) <> (319, 2593, 682) then
        Soak.fail soak
          "explored %d states, %d images, %d recovery images at the default \
           seed (pinned: 319, 2593, 682)"
          states images rimages;
      if images < 1000 then
        Soak.fail soak
          "only %d distinct crash images explored (need >= 1000)" images;
      if rimages < 100 then
        Soak.fail soak
          "only %d crash-during-recovery images verified (need >= 100)"
          rimages)
