"""The plain-loop reference for states over k binary settings, the oracle
for qlattice.tensor.global_section and the code that reads its encoding.

A state is a nonempty mask over the 2**k outcome tuples in product order:
tuple t reads bit k - 1 - i at setting i, Y being 0.
"""


def marginal(k, state, coords):
    """Projection of a state mask over k binary settings onto coords, by a
    plain loop over its tuples: bit s of the result is set when some tuple
    of the state reads the sub-tuple s at coords (the first coordinate
    being the high bit)."""
    out = 0
    for t in range(1 << k):
        if state >> t & 1:
            sub = 0
            for i in coords:
                sub = 2 * sub + (t >> (k - 1 - i) & 1)
            out |= 1 << sub
    return out
