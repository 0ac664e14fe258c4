"""Hand-written reference answers for the benchmark's anchor inputs.

These restate the README, the acceptance criteria and the tables of
spinchar's verification suites; the benchmark checks against this copy and
never imports spinchar.verify. Weights are fundamental-weight coefficients
in spinchar's numbering (F4: short simple roots first).
"""

# Reduced Spin of anchor modules: (type, highest weight) -> sorted list of
# (head, multiplicity).
SPIN = {
    # F4 on its 26-dim module: Spin0 = V_rho_s, rho_s = w1 + w2
    ("F4", (1, 0, 0, 0)): [((1, 1, 0, 0), 1)],
    # so9 on the Cartan square V_2w1: Spin0 = V_(rho + 2 w4)
    ("B4", (2, 0, 0, 0)): [((1, 1, 1, 3), 1)],
    # little adjoints (short dominant root): Spin0 = V_rho_s
    ("C4", (0, 1, 0, 0)): [((1, 1, 1, 0), 1)],
    ("B4", (1, 0, 0, 0)): [((0, 0, 0, 1), 1)],
    # so8 on its vector module: the two half-spin modules
    ("D4", (1, 0, 0, 0)): [((0, 0, 0, 1), 1), ((0, 0, 1, 0), 1)],
    # G2 negative control: V_w1 + trivial, not co-primary
    ("G2", (1, 0)): [((0, 0), 1), ((1, 0), 1)],
}

# Rank-one series: Spin0 R_2d = sum of R_h over these heads, each once.
# d <= 5 is the spin-series table; d = 6..8 expand prod_k (x^k + x^-k).
SPIN_SERIES = {
    2: [1],
    4: [3],
    6: [6, 0],
    8: [10, 4],
    10: [15, 9, 5],
    12: [21, 15, 11, 9, 3],
    14: [28, 22, 18, 16, 14, 10, 8, 4],
    16: [36, 30, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 0],
}
for _n, _heads in SPIN_SERIES.items():
    SPIN[("A1", (_n,))] = sorted(((h,), 1) for h in _heads)

# The co-primary modules of rank <= 3 (classification table). The sweep
# at height <= 8 finds exactly these.
COPRIMARY = {
    ("A1", (2,)), ("A1", (4,)),
    ("A2", (1, 1)),
    ("A3", (1, 0, 1)),
    ("B2", (0, 2)), ("B2", (1, 0)), ("B2", (2, 0)),
    ("B3", (0, 1, 0)), ("B3", (1, 0, 0)), ("B3", (2, 0, 0)),
    ("C2", (2, 0)), ("C2", (0, 1)), ("C2", (0, 2)),
    ("C3", (2, 0, 0)), ("C3", (0, 1, 0)),
    ("D3", (0, 1, 1)),
    ("G2", (0, 1)),
}

# Spin(g1) dimensions of inner gradings, (type, pivot) -> sorted dimensions.
# f4 > so9: V_(2w1) + V_(w3) + V_(w1+w4).
INNER_DIMS = {("F4", 1): [44, 84, 128]}

# Outer-family instances: (family, params) -> facts about the pair. The
# sixth instance, e6 > sp8 (three summands, fw (5,1,1,0), (3,1,1,1),
# (1,1,3,0)), takes ~32 s per pass and is not part of the benchmark.
#   count: summands = |W'| / |W0| (outer-family table)
#   dim_p, m0: dimension of g1 and its zero-weight multiplicity, so that
#       Spin0 has dimension 2^((dim_p - m0) / 2)
#   dual_coxeter: h^vee of g. The Casimir value is h^vee dim_p / 8 in the
#       normalization of g; the sl_odd realization lives on B_n with the
#       doubled restricted roots 2 alpha_s, which doubles the form.
OUTER = {
    ("sl_even", (2,)): {"count": 2, "dim_p": 9, "m0": 1, "dual_coxeter": 4,
                        "form_scale": 1},
    ("sl_even", (3,)): {"count": 2, "dim_p": 20, "m0": 2, "dual_coxeter": 6,
                        "form_scale": 1},
    ("so_odd_odd", (1, 1)): {"count": 2, "dim_p": 9, "m0": 1, "dual_coxeter": 4,
                             "form_scale": 1, "dims": [8, 8]},
    ("so_odd_odd", (2, 1)): {"count": 3, "dim_p": 15, "m0": 1, "dual_coxeter": 6,
                             "form_scale": 1, "dims": [24, 40, 64]},
    ("sl_odd", (2,)): {"count": 1, "dim_p": 14, "m0": 2, "dual_coxeter": 5,
                       "form_scale": 2},
}

# Ambient rank of each outer instance's realization (used to pick small
# subsets of the workload).
OUTER_RANK = {("sl_even", (2,)): 2, ("sl_even", (3,)): 3,
              ("so_odd_odd", (1, 1)): 2, ("so_odd_odd", (2, 1)): 3,
              ("sl_odd", (2,)): 2}
