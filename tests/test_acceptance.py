"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Run with ``pytest -s tests/test_acceptance.py`` to see every line.
"""

import math
import time

import numpy as np
from conftest import brute_force_worst_case, record_criterion

from qkdrates.decoy import decoy_invert, recover_single_photon_rates
from qkdrates.entropy import binary_entropy, worst_case_conditional_phase_entropy
from qkdrates.keyrate import (
    max_distance,
    rate_gllp,
    rate_improved,
    rate_shor_preskill,
    single_photon_class_error,
    threshold_bit_error,
)
from qkdrates.protocols import BB84, SIX_STATE, protocol_catalog
from qkdrates.scenario import (
    DetectorModel,
    EveKind,
    LinkModel,
    Scenario,
    SourceModel,
    breakdown,
    transmittance,
)
from qkdrates.simulator import compare_to_analytic, run_simulation


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"criterion {number}: {status} - {description}{suffix}"
    print(line)
    record_criterion(line)


def scenario(spec, source, length, c, e_x_sq):
    return Scenario(
        protocol=spec,
        source=source,
        link=LinkModel(attenuation_db_per_km=0.2, length_km=length),
        detector=DetectorModel(dark_count_prob=c, detector_count=spec.detector_count),
        e_x_sq=e_x_sq,
    )


def test_criterion_1_zero_dark_thresholds():
    expected = {"six-state": 0.126, "bb84": 0.110, "pbc00": 0.0981}
    start = time.perf_counter()
    results = {}
    for spec in protocol_catalog():
        lo, hi = 0.01, 0.3
        for _ in range(60):
            mid = (lo + hi) / 2
            if rate_shor_preskill(1.0, mid, spec) > 0.0:
                lo = mid
            else:
                hi = mid
        results[spec.name] = (lo + hi) / 2
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0 and all(
        abs(results[name] - want) <= 5e-4 for name, want in expected.items()
    )
    detail = ", ".join(f"{k}={v:.5f}" for k, v in results.items())
    report(1, "zero-dark-count thresholds 0.126/0.110/0.0981 (+-5e-4)", ok,
           f"{detail}; {elapsed:.2f}s")
    assert ok, results


def test_criterion_2_table1_reproduction():
    # The reference table keeps two digits and drops the rest (truncation),
    # so each entry must satisfy want <= got < want + 0.01.  Rounding cannot
    # be the reading: for BB84 the phase error equals the bit error, and
    # H(e_z|e_x) <= h(e_z) is attained at e_y* = e_x + e_z - 2 e_x e_z = 0.18,
    # inside the admissible [0, 2 e_x] = [0, 0.2].  The threshold at
    # e_x_sq = 0.1 is then the root of 1 - h(0.1 + 0.4 f) = (1 - f) h(0.1),
    # f being the dark-count share of conclusive events: 0.13570, which
    # truncates to 0.13 but rounds to 0.14.  All other entries fit both.
    expected = {
        ("pbc00", 0.0): 0.50, ("bb84", 0.0): 0.50, ("six-state", 0.0): 0.50,
        ("pbc00", 0.01): 0.43, ("bb84", 0.01): 0.44, ("six-state", 0.01): 0.46,
        ("pbc00", 0.1): None, ("bb84", 0.1): 0.13, ("six-state", 0.1): 0.19,
    }
    start = time.perf_counter()
    failures = []
    for (name, e_sq), want in expected.items():
        spec = next(s for s in protocol_catalog() if s.name == name)
        got = threshold_bit_error(spec, e_sq)
        if want is None:
            if got is not None:
                failures.append(f"{name}@{e_sq}: expected none, got {got:.4f}")
        elif got is None or not want - 1e-9 <= got < want + 0.01:
            shown = "none" if got is None else f"{got:.4f}"
            failures.append(f"{name}@{e_sq}: expected {want} "
                            f"(truncated to two digits), got {shown}")
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0 and not failures
    report(2, "threshold table 0.50/0.50/0.50, 0.43/0.44/0.46, none/0.13/0.19 "
              "(truncated to two digits)", ok,
           "; ".join(failures) or f"{elapsed:.2f}s")
    assert ok, failures


def test_criterion_3_improved_dominates_gllp():
    rng = np.random.default_rng(2024)
    specs = protocol_catalog()
    worst_gap = math.inf
    for _ in range(1000):
        spec = specs[rng.integers(len(specs))]
        if rng.random() < 0.5:
            source = SourceModel.single_photon()
        else:
            source = SourceModel.poissonian(float(rng.uniform(0.05, 2.0)))
        scn = scenario(
            spec,
            source,
            length=float(rng.uniform(0.0, 400.0)),
            c=float(10.0 ** rng.uniform(-8, -3)),
            e_x_sq=float(rng.uniform(0.0, 0.5)),
        )
        b = breakdown(scn)
        worst_gap = min(worst_gap, rate_improved(b, spec) - rate_gllp(b, spec))
    ok = worst_gap >= -1e-12
    report(3, "rate_improved >= rate_gllp - 1e-12 on 1000 random breakdowns",
           ok, f"min gap {worst_gap:.3e}")
    assert ok


def test_criterion_4_fig1_structure():
    start = time.perf_counter()
    distances = {}
    for spec in protocol_catalog():
        scn = scenario(spec, SourceModel.single_photon(), 0.0, 1e-6, 0.01)
        distances[spec.name] = (
            max_distance(scn, "gllp"),
            max_distance(scn, "improved"),
        )
    elapsed = time.perf_counter() - start
    gains = all(new > old for old, new in distances.values())
    ordering = (
        distances["pbc00"][1] <= distances["bb84"][1] <= distances["six-state"][1]
    )
    ok = gains and ordering and elapsed < 5.0
    detail = ", ".join(
        f"{name}: {old:.1f}->{new:.1f} km" for name, (old, new) in distances.items()
    )
    report(4, "single-photon curves: improved beats gllp, pbc00 <= bb84 <= "
              "six-state", ok, f"{detail}; {elapsed:.2f}s")
    assert ok, distances


def test_criterion_5_fig3_structure():
    start = time.perf_counter()
    scn = scenario(BB84, SourceModel.poissonian(0.5), 0.0, 1e-6, 0.01)
    # the rate inputs are the decoy-recovered quantities; verify the
    # recovery is exact before comparing reaches
    probe = scn.at_length(50.0)
    b = breakdown(probe)
    p_sq, e_sq = decoy_invert(
        b.omega1 * b.p_c,
        single_photon_class_error(b),
        0.5,
        transmittance(probe.link),
        1e-6,
        BB84.dark_conclusive_multiplier,
    )
    recovery_exact = (
        abs(p_sq - b.p_sq) <= 1e-12 and abs(e_sq - probe.e_x_sq) <= 1e-12
    )
    d_old = max_distance(scn, "gllp")
    d_new = max_distance(scn, "improved")
    elapsed = time.perf_counter() - start
    ok = recovery_exact and d_new > d_old and elapsed < 5.0
    report(5, "Poissonian mu=0.5 decoy curves: improved beats gllp", ok,
           f"gllp {d_old:.1f} km, improved {d_new:.1f} km; {elapsed:.2f}s")
    assert ok


def test_criterion_6_simulator_analytics_agreement():
    n_pulses = 10_000_000
    seeds = range(1000, 1020)
    fields = ("p_sq", "p_mq", "p_dk", "e_x")
    start = time.perf_counter()
    failures = []
    for spec in protocol_catalog():
        for source in (SourceModel.single_photon(), SourceModel.poissonian(0.5)):
            scn = scenario(spec, source, length=50.0, c=1e-5, e_x_sq=0.05)
            passes = {name: 0 for name in fields}
            for seed in seeds:
                stats = run_simulation(scn, EveKind.NONE, n_pulses, seed=seed)
                zs = {row.name: row.z for row in compare_to_analytic(stats, scn)}
                for name in fields:
                    if abs(zs[name]) <= 3.0:
                        passes[name] += 1
            label = f"{spec.name}/{source.kind.value}"
            for name in fields:
                if passes[name] < 19:  # 95% of 20 seeds
                    failures.append(f"{label}.{name}: {passes[name]}/20")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(6, "6 scenarios x 20 seeds x 1e7 pulses within 3 sigma (>=95%)", ok,
           "; ".join(failures) or f"{elapsed:.1f}s")
    assert ok, failures


def test_criterion_7_intercept_resend_oracle():
    results = []
    for spec, attack_rate in ((BB84, 0.25), (SIX_STATE, 1.0 / 3.0)):
        scn = scenario(spec, SourceModel.single_photon(), 0.0, 0.0, 0.0)
        stats = run_simulation(scn, EveKind.INTERCEPT_RESEND, 1_200_000, seed=77)
        se = math.sqrt(attack_rate * (1 - attack_rate) / stats.conclusive_count)
        results.append(
            (spec.name, stats.e_x_hat, attack_rate,
             stats.conclusive_count >= 1_000_000
             and abs(stats.e_x_hat - attack_rate) <= 3 * se)
        )
    ok = all(r[3] for r in results)
    detail = ", ".join(f"{name}: {got:.4f} vs {want:.4f}" for name, got, want, _ in results)
    report(7, "intercept-resend error rates 0.25 (bb84) and 1/3 (six-state)",
           ok, detail)
    assert ok, results


def test_criterion_8_decoy_round_trip():
    # analytic inverse to 1e-9
    rng = np.random.default_rng(8)
    analytic_ok = True
    for _ in range(50):
        spec = (BB84, SIX_STATE)[rng.integers(2)]
        mu = float(rng.uniform(0.05, 2.0))
        scn = scenario(
            spec,
            SourceModel.poissonian(mu),
            length=float(rng.uniform(0.0, 200.0)),
            c=float(10.0 ** rng.uniform(-8, -4)),
            e_x_sq=float(rng.uniform(0.0, 0.4)),
        )
        b = breakdown(scn)
        p_sq, e_sq = decoy_invert(
            b.omega1 * b.p_c,
            single_photon_class_error(b),
            mu,
            transmittance(scn.link),
            scn.detector.dark_count_prob,
            spec.dark_conclusive_multiplier,
        )
        if abs(p_sq - b.p_sq) > 1e-9 or abs(e_sq - scn.e_x_sq) > 1e-9:
            analytic_ok = False
            break

    # statistical recovery at 1e7 pulses
    scn = scenario(BB84, SourceModel.poissonian(0.5), 50.0, 1e-6, 0.01)
    stats = run_simulation(scn, EveKind.NONE, 10_000_000, seed=88)
    recovery = recover_single_photon_rates(stats, scn)
    truth = breakdown(scn)
    sim_ok = (
        abs(recovery.p_sq - truth.p_sq) <= 3 * recovery.p_sq_se
        and abs(recovery.e_x_sq - scn.e_x_sq) <= 3 * recovery.e_x_sq_se
    )
    ok = analytic_ok and sim_ok
    report(8, "decoy inversion: exact analytic round trip, 3-sigma from "
              "simulation", ok,
           f"recovered e_x_sq {recovery.e_x_sq:.5f} vs {scn.e_x_sq}")
    assert ok


def test_criterion_9_entropy_properties():
    rng = np.random.default_rng(9)
    symmetric = all(
        abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 1e-12
        for p in np.linspace(0.0, 1.0, 201)
    )
    concave = True
    for _ in range(200):
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        lam = rng.uniform()
        mix = lam * a + (1 - lam) * b
        if binary_entropy(mix) < lam * binary_entropy(a) + (1 - lam) * binary_entropy(b) - 1e-12:
            concave = False
            break
    peak = binary_entropy(0.5) == 1.0

    specs = protocol_catalog()
    worst_dev = 0.0
    for _ in range(100):
        spec = specs[rng.integers(len(specs))]
        e_x = float(rng.uniform(0.0, 0.5))
        got = worst_case_conditional_phase_entropy(spec, e_x)
        want = brute_force_worst_case(spec, e_x)
        worst_dev = max(worst_dev, abs(got - want))
    grid_match = worst_dev <= 1e-6

    ok = symmetric and concave and peak and grid_match
    report(9, "entropy symmetry, concavity, H(0.5)=1, worst case matches "
              "dense grid to 1e-6", ok, f"max grid deviation {worst_dev:.2e}")
    assert ok
