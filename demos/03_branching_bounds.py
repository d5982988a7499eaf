"""
Branching lower bounds and the constant-g certificate
=====================================================

Comparing the cluster to a branching process whose offspring mean is
gamma times the connectivity mass gives a rigorous lower bound on the
critical intensity: gamma_c >= 1 / mass. Below that bound the same
comparison certifies a finite mean cluster size.
"""

from rcmperc import REFERENCE_TABLES, Gilbert, branching_bound, constant_g_certificate

# the models of the five reference tables
print("branching lower bound on the critical intensity")
print(f"{'model':45s}" + "".join(f"    d={d}    " for d in (2, 3, 4, 5)))
for table in REFERENCE_TABLES.values():
    row = "".join(f"  {branching_bound(table.model, d):9.6f}" for d in (2, 3, 4, 5))
    print(f"{table.model.describe():45s}{row}")

# the certificate: at gamma below the bound, the expected degree
# q = gamma * mass is < 1 and the mean cluster size is at most 1 + g
# with g = q / (1 - q)

model = Gilbert(radius=2.0)
gamma0 = branching_bound(model, 2)
print(f"\ncertificates for Gilbert disks in d=2 (bound = {gamma0:.6f})")
for frac in (0.25, 0.5, 0.9, 0.99, 1.1):
    rep = constant_g_certificate(model, 2, frac * gamma0)
    if rep.certificate_valid:
        print(
            f"gamma = {frac:4.2f} * bound : degree q={rep.expected_degree:6.4f}"
            f"  mean cluster <= {rep.mean_cluster_size_bound:8.3f}"
            f"  slack={rep.certificate_slack:+.1e}"
        )
    else:
        print(f"gamma = {frac:4.2f} * bound : degree q={rep.expected_degree:6.4f}  no certificate (q >= 1)")
