"""Reduced Spin of orthogonal modules and the co-primary sweep.

Run:  python demos/04_spin_modules.py
"""

from spinchar import (WeightSystem, build_root_system, classify_coprimary,
                      enumerate_dominant_halves, extreme_weights,
                      freudenthal_weights, orthogonality_type, special_elements,
                      spin0_decomposition, spin_scalar)

# The rank-one series: Spin of R_{2d} for d = 1..6.
a1 = build_root_system("A1")
for d in range(1, 7):
    ws = freudenthal_weights(a1, a1.weight(2 * d))
    dec = spin0_decomposition(ws)
    heads = sorted((int(a1.fw_coefficients(l)[0]) for l, _ in dec), reverse=True)
    print(f"Spin R_{2*d:<2d} = " + " + ".join(f"R_{m}" for m in heads))

print()

# Spin of the adjoint module is the irreducible with highest weight rho,
# up to the power of two carried by the Cartan directions.
b3 = build_root_system("B3")
ws = WeightSystem.adjoint(b3)
dec = spin0_decomposition(ws)
print(f"adjoint of B3: Spin = 2^{spin_scalar(ws).bit_length()-1} x {dec}")

# The little adjoint module of the doubly-laced types is co-primary; its
# reduced Spin is the irreducible with highest weight rho_s. G2 is the
# exception: there a trivial summand appears.
for desc in ["C3", "F4", "G2"]:
    rs = build_root_system(desc)
    se = special_elements(rs)
    ws = freudenthal_weights(rs, se.theta_s)
    dec = spin0_decomposition(ws)
    print(f"{desc}: Spin0(little adjoint) = {dec}")

print()

# Extreme weights come from the chambers the weight hyperplanes cut out of
# the dominant cone; each is certified as a summand of multiplicity one in
# the decomposition of Spin0.
ws = freudenthal_weights(a1, a1.weight(4))
print(f"R4: {len(enumerate_dominant_halves(ws))} dominant half,"
      f" extreme weights {extreme_weights(ws, spin0_decomposition(ws))}")

# Orthogonality gatekeeping.
c3 = build_root_system("C3")
print(f"C3 defining module: {orthogonality_type(c3, c3.weight(1, 0, 0))}")

# The full sweep at rank <= 2, height <= 6.
print("\nco-primary modules, rank <= 2, height <= 6:")
for rec in classify_coprimary(2, 6):
    if rec["coprimary"]:
        print(f"  {rec['type']}: lambda = ({','.join(rec['weight'])})")
