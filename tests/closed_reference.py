"""Closed sets by an independent route: scipy's strongly connected components of the
thresholded flow graph, kept when no edge leaves them."""

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from lattice_markov.markov import EDGE_THRESHOLD, ChainAnalysis


def scipy_closed_sets(m) -> ChainAnalysis:
    """The `closed_sets` analysis of the dense matrix m, where m[i, j] > EDGE_THRESHOLD
    off the diagonal is flow from j to i."""
    m = np.asarray(m, dtype=float)
    flow = (m > EDGE_THRESHOLD) & ~np.eye(len(m), dtype=bool)
    count, label = connected_components(csr_array(flow.T), directed=True, connection="strong")
    targets, sources = np.nonzero(flow)
    leaky = set(label[sources[label[sources] != label[targets]]].tolist())
    sinks = sorted((np.flatnonzero(label == c) + 1).tolist()
                   for c in range(count) if c not in leaky)
    return ChainAnalysis([s[0] for s in sinks if len(s) == 1], sinks, count > 1)
