"""Posting-list accumulation, the one hot loop in retrieval.

Postings are kept in a CSR layout (one flat int32 array of document numbers
plus per-token offsets). The matched ranges are gathered into one array and
``np.bincount`` counts, per document, how many of the query's tokens it holds.
"""

from __future__ import annotations

import numpy as np


def current_backend() -> str:
    """Kept because the benchmark's provenance record names the kernel."""
    return "numpy"


def accumulate_counts(flat: np.ndarray, starts: np.ndarray, ends: np.ndarray, n_docs: int) -> np.ndarray:
    """Count, per document number, the matched ranges that hold it.

    Kept a module attribute: the benchmark tracer wraps it by this name.
    """
    if len(starts) == 0:
        return np.zeros(n_docs, dtype=np.intp)
    gathered = np.concatenate([flat[s:e] for s, e in zip(starts, ends)], dtype=np.intp)
    return np.bincount(gathered, minlength=n_docs)
