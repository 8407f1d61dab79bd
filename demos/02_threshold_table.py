"""Bit error rate thresholds with and without dark-count credit.

With no dark counts, the one-way thresholds are the classic 11.0% (BB84),
12.6% (six-state), and 9.81% (PBC00).  Crediting dark counts as
information-free changes the picture: as the dark-count share of
conclusive results grows, the observed error rate a protocol can tolerate
rises far beyond those numbers, reaching 50% when the intrinsic qubit
error vanishes.
"""

from qkdrates import protocol_catalog, threshold_bit_error, zero_dark_threshold

print("Zero-dark-count thresholds (root of the one-way rate):")
for spec in protocol_catalog():
    print(f"  {spec.name:10} {100 * zero_dark_threshold(spec):6.2f} %")

print()
print("Thresholds on the observed error rate when dark counts are credited")
print("(rows: intrinsic qubit error rate e_x_sq):")
header = "e_x_sq   | " + " | ".join(f"{s.name:>9}" for s in protocol_catalog())
print(header)
print("-" * len(header))
for e_sq in (0.0, 0.01, 0.05, 0.1):
    cells = []
    for spec in protocol_catalog():
        t = threshold_bit_error(spec, e_sq)
        cells.append("     none" if t is None else f"{100 * t:8.2f}%")
    print(f"{e_sq:8.3f} | " + " | ".join(cells))

print()
print("A '-' style 'none' entry means the rate is negative even before any")
print("dark count contributes, so no threshold on the mixed rate exists.")
