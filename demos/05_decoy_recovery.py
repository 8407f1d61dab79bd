"""Recovering single-photon statistics behind dark-count contamination.

A Poissonian source cannot tag which pulses carried one photon, but
varying the mean photon number (decoy states) estimates the conclusive
rate and error rate of the single-photon pulses.  Those estimates still
mix in dark counts on pulses whose photon was lost; the inversion strips
that contribution and returns the qubit-only quantities.

Without decoy states, only a worst-case bound is available, and the
multi-photon fraction rather than dark counts dominates the loss.
"""

from qkdrates import (
    DetectorModel,
    EveKind,
    LinkModel,
    Scenario,
    SourceModel,
    breakdown,
    get_protocol,
    transmittance,
)
from qkdrates.decoy import recover_single_photon_rates, worst_case_no_decoy
from qkdrates.simulator import run_simulation

scn = Scenario(
    protocol=get_protocol("bb84"),
    source=SourceModel.poissonian(0.5),
    link=LinkModel(attenuation_db_per_km=0.2, length_km=50.0),
    detector=DetectorModel(dark_count_prob=1e-6, detector_count=2),
    e_x_sq=0.01,
)

truth = breakdown(scn)
stats = run_simulation(scn, EveKind.NONE, 5_000_000, seed=41)
recovery = recover_single_photon_rates(stats, scn)

print(f"channel: eta = {transmittance(scn.link):.4f}, true e_x_sq = {scn.e_x_sq}")
print(f"observed mixed error rate      {stats.e_x_hat:.5f}")
print(f"recovered p_sq                 {recovery.p_sq:.6e} "
      f"(true {truth.p_sq:.6e}, se {recovery.p_sq_se:.1e})")
print(f"recovered e_x_sq               {recovery.e_x_sq:.5f} "
      f"(true {scn.e_x_sq}, se {recovery.e_x_sq_se:.1e})")

print()
print("Worst case without decoy states (all multi-photon pulses assumed")
print("conclusive):")
est = worst_case_no_decoy(truth.p_c, truth.e_x, 0.5)
if est.usable:
    print(f"  omega1 lower bound {est.omega1_lower:.4f}, "
          f"e_x_1 upper bound {est.e_x_1_upper:.4f}")
else:
    print("  no usable single-photon fraction: the multi-photon emission")
    print(f"  rate exceeds the conclusive rate {truth.p_c:.4e} entirely.")
