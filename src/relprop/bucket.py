"""Bucket elimination over bool factors: whether some assignment of
every axis makes every factor true (Dechter, "Bucket elimination: a
unifying framework for reasoning", AIJ 1999).

A factor is a bool tensor with one integer label per axis; factors with a
label in common share that axis. They are joined pairwise over
(or, and), in the order np.einsum_path picks. A join reduces by `any`
each axis only one operand holds and no other factor needs, and packs the
values of the axes both hold and no other factor needs into bytes, so two
rows meet in one AND per eight values, a chunk of rows at a time. No BLAS
routine runs and nothing is counted. `bounded` loads this module only for
a box of more than one block.
"""

from __future__ import annotations

import math
import re
from typing import Optional

import numpy as np


def satisfiable(factors: list[tuple[np.ndarray, list[int]]], cells: int,
                cost: float) -> Optional[bool]:
    """Whether some assignment of every axis makes every factor true; None
    when a join would have more than `cells` cells or einsum's FLOP
    estimate is not below `cost`. Consumes `factors`."""
    path, info = np.einsum_path(*[x for f in factors for x in f], [],
                                optimize=("greedy", cells))
    flops = float(re.search(r"Optimized FLOP count:\s*(\S+)", info).group(1))
    if flops >= cost:
        return None
    for step in path[1:]:
        picked = [factors.pop(i) for i in sorted(step, reverse=True)]
        while len(picked) > 1:
            keep = {x for _, held in factors + picked[:-2] for x in held}
            joined = _join(picked, keep, cells)
            if joined is None:
                return None
            if not joined[0].any():
                return False  # no row can satisfy the factors joined
            picked.append(joined)
        factors += picked
    return bool(factors[0][0].any())


def _join(pair: list[tuple[np.ndarray, list[int]]], keep: set[int],
          cells: int) -> Optional[tuple[np.ndarray, list[int]]]:
    """The factor over the axes of the last two factors of `pair`, which
    it takes from `pair`, that `keep` holds: true where some values of
    their other axes make both true. None when it would have more than
    `cells` cells."""
    (b, b_axes), (a, a_axes) = pair.pop(), pair.pop()
    dims = dict(zip(a_axes, a.shape)) | dict(zip(b_axes, b.shape))
    batch = [x for x in a_axes if x in b_axes and x in keep]
    summed = [x for x in a_axes if x in b_axes and x not in keep]
    only_a = [x for x in a_axes if x not in b_axes and x in keep]
    only_b = [x for x in b_axes if x not in a_axes and x in keep]
    nb, na, nab = (math.prod(dims[x] for x in g)
                   for g in (batch, only_a, only_b))
    if nb * na * nab > cells:
        return None
    wa = _bytes(a, a_axes, batch + only_a, summed, nb)
    wb = _bytes(b, b_axes, batch + only_b, summed, nb)
    # Each chunk of a's rows meets all of b's in at most as many bytes as
    # the larger operand has cells; the operands' cells are then freed.
    step = max(1, max(a.size, b.size) // wb.size)
    del a, b
    # With fewer bytes per row than b has rows, both are laid out rows
    # first, so numpy's inner loops run along b's rows.
    if wb.shape[2] < nab:
        wa, wb = (w.transpose(0, 2, 1).copy().transpose(0, 2, 1)
                  for w in (wa, wb))
    out = np.empty((nb, na, nab), bool)
    for i in range(0, na, step):
        met = wa[:, i:i + step, None, :] & wb[:, None, :, :]
        np.not_equal(np.bitwise_or.reduce(met, axis=-1), 0,
                     out=out[:, i:i + step])
    out_axes = batch + only_a + only_b
    return out.reshape([dims[x] for x in out_axes]), out_axes


def _bytes(t: np.ndarray, axes: list[int], rows: list[int],
           packed: list[int], nb: int) -> np.ndarray:
    """`t` as (nb, row, byte) uint8, reduced by `any` over the axes
    neither `rows` nor `packed` holds: a row for each value of the `rows`
    axes (the first are the `nb` batches), holding its values over the
    `packed` axes as bits, zero-padded to whole bytes."""
    kept = [x for x in axes if x in rows or x in packed]
    if len(kept) < len(axes):
        t = t.any(axis=tuple(i for i, x in enumerate(axes) if x not in kept))
    t = t.transpose([kept.index(x) for x in rows + packed])
    n = math.prod(t.shape[len(rows):])  # 1 with none packed
    return np.packbits(t.reshape(-1, n), axis=-1).reshape(nb, -1, -(-n // 8))
