(* crashmc recovery-depth suite: a deeper crash-during-recovery budget than
   the smoke run. The outer enumeration is kept modest; the per-image
   re-crash enumeration (crash -> partially recover -> crash again at a
   recovery fence -> recover again) gets a much larger budget, so the
   idempotence of recovery itself — not just its end state — is the thing
   being exercised. Acceptance:

   - >= 600 nested crash-during-recovery images verified,
   - zero violations on the real code, nested images included,
   - the non-idempotent-replay fixture IS flagged (nested checking is not
     vacuous),
   - fully deterministic given the seed.

   Wired into `dune runtest` through the crashmc-recovery alias; also
   runnable directly: dune exec test/crashmc_recovery.exe *)

module Crashmc = Hinfs_crashmc.Crashmc
module Soak = Testkit.Soak

let params =
  {
    Crashmc.seed = 1789L;
    k_exhaustive = 8;
    samples_per_state = 12;
    max_images_per_state = 48;
    max_states = 24;
    recrash_states = 6;
    recrash_samples = 4;
    recrash_checks = 240;
  }

let () =
  Soak.crashmc "crashmc-recovery" params (fun soak report ->
      let rstates = Crashmc.total_recovery_states report in
      let rimages = Crashmc.total_recovery_images report in
      if rstates < 100 then
        Soak.fail soak
          "only %d recovery-phase crash states captured (need >= 100)" rstates;
      if rimages < 600 then
        Soak.fail soak
          "only %d crash-during-recovery images verified (need >= 600)"
          rimages)
