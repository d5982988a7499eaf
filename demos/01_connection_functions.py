"""
Connection functions and their mass
===================================

A random connection model is set by one radial function phi: two points
at distance r join with probability phi(r), independently per pair. The
integral of phi over space (the connectivity mass) is the expected
number of partners of a typical point at unit intensity.
"""

from rcmperc import Gilbert, PenetrableSphere, SoftSphere, TabulatedRadial

models = [
    Gilbert(radius=2.0),
    PenetrableSphere(radius=2.0, prob=0.5),
    PenetrableSphere(radius=2.0, prob=0.75),
    SoftSphere(radius=2.0, hardness=6),
    SoftSphere(radius=2.0, hardness=12),
    # a hand-made profile: certain up to r=1, then a linear fade-out
    TabulatedRadial((0.0, 1.0, 2.0), (1.0, 1.0, 0.0)),
]

radii = [0.0, 0.5, 1.0, 1.5, 1.9, 2.0, 2.1]

print("phi(r) by model")
print(f"{'model':45s}" + "".join(f"  r={r:<4g}" for r in radii))
for m in models:
    row = "".join(f"  {m.phi_at(r):6.4f}" for r in radii)
    print(f"{m.describe():45s}{row}")

# beyond the range every family is exactly zero; inside, Gilbert
# dominates and the harder soft sphere sits above the softer one

print("\nconnectivity mass (expected partners at intensity 1)")
print(f"{'model':45s}" + "".join(f"   d={d}   " for d in (2, 3, 4, 5)))
for m in models:
    row = "".join(f"  {m.connectivity_mass(d):7.3f}" for d in (2, 3, 4, 5))
    print(f"{m.describe():45s}{row}")
