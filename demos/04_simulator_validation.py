"""Pulse-level Monte Carlo versus the closed-form breakdown.

Two million pulses per scenario through emission, loss, sifting, and dark
counts; every analytic rate by origin, and the error rate, should land
within a few standard errors of its empirical tally.  The intercept-resend
attack serves as an independent sanity check with a known error rate.
"""

from qkdrates import (
    DetectorModel,
    EveKind,
    LinkModel,
    Scenario,
    SourceModel,
    get_protocol,
    run_simulation,
)
from qkdrates.simulator import compare_to_analytic

N_PULSES = 2_000_000


def scenario(name, source):
    spec = get_protocol(name)
    return Scenario(
        protocol=spec,
        source=source,
        link=LinkModel(attenuation_db_per_km=0.2, length_km=50.0),
        detector=DetectorModel(dark_count_prob=1e-5, detector_count=spec.detector_count),
        e_x_sq=0.05,
    )


for name in ("bb84", "six-state", "pbc00"):
    for source, label in (
        (SourceModel.single_photon(), "single-photon"),
        (SourceModel.poissonian(0.5), "poissonian 0.5"),
    ):
        scn = scenario(name, source)
        stats = run_simulation(scn, EveKind.NONE, N_PULSES, seed=7)
        print(f"{name} / {label}:")
        for row in compare_to_analytic(stats, scn):
            print(
                f"  {row.name:6} empirical {row.empirical:.4e}  "
                f"analytic {row.analytic:.4e}  z {row.z:+.2f}"
            )

print()
print("Intercept-resend attack (error-free channel, no dark counts):")
for name, expected in (("bb84", 0.25), ("six-state", 1 / 3)):
    spec = get_protocol(name)
    scn = Scenario(
        protocol=spec,
        source=SourceModel.single_photon(),
        link=LinkModel(0.2, 0.0),
        detector=DetectorModel(0.0, spec.detector_count),
        e_x_sq=0.0,
    )
    stats = run_simulation(scn, EveKind.INTERCEPT_RESEND, N_PULSES, seed=7)
    print(f"  {name:10} observed error rate {stats.e_x_hat:.4f} (expected {expected:.4f})")
