"""Weyl groups, minimal coset sections, and the cunning parity.

Run:  python demos/02_weyl_groups.py
"""

from collections import Counter

from spinchar import (SubsystemDatum, build_root_system, cunning_parity,
                      enumerate_weyl, minimal_coset_reps)

rs = build_root_system("B2")
group = enumerate_weyl(rs)
print(f"W(B2) has {len(group)} elements,"
      f" lengths {sorted(w.length for w in group)}")

# The long roots of B2 span a subsystem of type A1 x A1 (the even part of
# the so5 > so4 pair). Its Weyl subgroup has index 2, so the minimal coset
# section has two representatives.
longs = [r for r in rs.positive_roots if rs.inner(r, r) == 2]
sub = SubsystemDatum(rs, longs)
reps = minimal_coset_reps(rs, sub)
print(f"even part {sub.system.descriptor()}: |W0| = {len(sub.group)},"
      f" section size {len(reps)}")

# The cunning parity is (-1)^l0(w), l0(w) counting the roots of Delta0+
# that w^{-1} sends below zero; on W0 it is the W0-sign.
print("\n w(rho)                 l(w)  l0(w)  tau")
for w in group:
    tau, l0 = cunning_parity(rs, sub, w)
    print(f" {str(w.apply(rs.rho)):16s} {w.length:5d} {l0:6d} {tau:+5d}")

# The section is walked from rho without W. Every element factors uniquely
# as w0 (rep)^{-1}, w0 in W0 and rep in the section, so |section| |W0| = |W|.
assert len(reps) * len(sub.group) == len(group)
profile = dict(sorted(Counter(rep.length for rep in reps).items()))
print(f"\nsection {[str(rep.apply(rs.rho)) for rep in reps]},"
      f" representatives per length {profile}")

# The short roots also form a subsystem (not closed in B2!); there the
# twisted length can lag the true length.
shorts = [r for r in rs.positive_roots if rs.inner(r, r) == 1]
sub_s = SubsystemDatum(rs, shorts)
gaps = sum(1 for w in group if cunning_parity(rs, sub_s, w)[1] < w.length)
print(f"\nshort subsystem: l0 < l for {gaps} of {len(group)} elements")

# F4 in twelve hundred exact matrices.
f4 = build_root_system("F4")
print(f"\n|W(F4)| = {len(enumerate_weyl(f4))}")
