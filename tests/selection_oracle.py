"""Reference correlation filter for tests: a pearson call for every pair
it looks at, every time it looks.

This is the straightforward version of `botsift.selection.filter_select`:
each feature is tested for constancy on its own column, its label
correlation is one pearson call, and each round of redundancy pruning
recomputes pearson for every pair of still-selected features. The
correlation matrix is built by its own pairwise loop. The program's
single-matrix path must reproduce every field bit for bit.
"""

import numpy as np

from botsift.selection import FilterResult, pearson


def correlations(ds) -> np.ndarray:
    """Pairwise feature correlations, NaN for every entry of a constant
    feature."""
    d = len(ds.feature_names)
    out = np.full((d, d), np.nan)
    usable = [j for j in range(d) if not np.all(ds.rows[:, j]
                                                == ds.rows[0, j])]
    for a in usable:
        for b in usable:
            out[a, b] = 1.0 if a == b else pearson(ds.rows[:, a],
                                                    ds.rows[:, b])
    return out


def filter_select(ds, threshold: float = 0.1,
                  redundancy_threshold: float = 0.95) -> FilterResult:
    y = ds.labels.astype(float)
    label_corr = {}
    constant = []
    for j, name in enumerate(ds.feature_names):
        col = ds.rows[:, j]
        if np.all(col == col[0]):
            constant.append(name)
            continue
        label_corr[name] = pearson(col, y)

    stage1 = [name for name in label_corr
              if abs(label_corr[name]) > threshold]
    stage1.sort(key=lambda nm: (-abs(label_corr[nm]),
                                ds.feature_names.index(nm)))

    cols = {nm: ds.rows[:, ds.feature_names.index(nm)] for nm in stage1}
    selected = list(stage1)
    dropped = []
    while True:
        worst = None  # (|r|, pos_i, pos_j)
        for a in range(len(selected)):
            for b in range(a + 1, len(selected)):
                r = abs(pearson(cols[selected[a]], cols[selected[b]]))
                if r > redundancy_threshold and (worst is None
                                                 or r > worst[0]):
                    worst = (r, a, b)
        if worst is None:
            break
        r, a, b = worst
        fa, fb = selected[a], selected[b]
        drop, keep = (fb, fa) if (abs(label_corr[fa])
                                  >= abs(label_corr[fb])) else (fa, fb)
        dropped.append((drop, keep, r))
        selected.remove(drop)

    return FilterResult(threshold, redundancy_threshold, label_corr,
                        constant, stage1, dropped, selected,
                        correlations(ds))
