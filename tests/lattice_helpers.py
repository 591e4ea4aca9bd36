"""Helpers the lattice tests share; not collected as tests."""

from __future__ import annotations


def profiles_of_length(total, m):
    """Every profile of m counts summing to `total`, in lexicographic order."""
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in profiles_of_length(total - first, m - 1):
            yield (first,) + rest
