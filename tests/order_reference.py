"""Dense boolean matrices as int row masks, the way tests state an order or
a table in numpy and hand it to the mask-based code under test."""

import numpy as np


def row_masks(mat):
    """Each row of a boolean matrix as an int, bit j for column j."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
