"""Reference computations, written apart from scenrisk on plain numpy arrays.

Every check in the benchmark compares the program against these functions or
against a property the method must have.  `selftest()` pins each reference
against brute force on tiny inputs before a run starts, so a wrong reference
cannot pass a wrong program.
"""

from __future__ import annotations

import numpy as np


def avar(x: np.ndarray, probs: np.ndarray, alpha: float) -> float:
    """AVaR_alpha(X) = -(1/alpha) * (mass-alpha lower tail of X), by sorted partial sums."""
    order = np.argsort(x, kind="stable")
    v = x[order]
    pr = probs[order]
    cum = np.cumsum(pr)
    k = min(int(np.searchsorted(cum, alpha, side="left")), v.size - 1)
    below = float(cum[k - 1]) if k > 0 else 0.0
    tail = float(v[:k] @ pr[:k]) + (alpha - below) * float(v[k])
    return -tail / alpha


def _norm_ratio(u: np.ndarray, probs: np.ndarray, p: float) -> float:
    """E[u^(p-1)] / ||u||_p^(p-1) for u >= 0 not all zero; scale free."""
    w = u / u.max()
    return float(probs @ w ** (p - 1.0)) / float(probs @ w ** p) ** ((p - 1.0) / p)


def hull_objective(x: np.ndarray, probs: np.ndarray, c: float, p: float, s: float) -> float:
    """phi(s) = c * ||(s - X)^+||_p - s."""
    u = np.maximum(s - x, 0.0)
    top = float(u.max())
    if top == 0.0:
        return -s
    return c * top * float(probs @ (u / top) ** p) ** (1.0 / p) - s


def higher_order_t(x: np.ndarray, probs: np.ndarray, c: float, p: float) -> float:
    """T_{c,p}(X) = min_s phi(s) for p > 1, by bisection on the sign of phi'.

    phi is convex with slope -1 left of min X, right slope c P(min)^(1/p) - 1
    at min X, and slope tending to c - 1 > 0 at infinity; in between
    phi'(s) = c E[u^(p-1)] / ||u||_p^(p-1) - 1 with u = (s - X)^+.
    """
    m = float(x.min())
    if c * float(probs[x == m].sum()) ** (1.0 / p) >= 1.0:
        return -m

    def slope(s: float) -> float:
        return c * _norm_ratio(np.maximum(s - x, 0.0), probs, p) - 1.0

    width = float(x.max()) - m + 1.0
    hi = m + width
    while slope(hi) <= 0.0:
        width *= 2.0
        hi = m + width
    lo = m
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return min(hull_objective(x, probs, c, p, s) for s in (lo, 0.5 * (lo + hi), hi))


def cond_exp(x: np.ndarray, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """E[X | cells] with cells given as integer labels, by two bincounts."""
    mass = np.bincount(labels, weights=probs)
    total = np.bincount(labels, weights=probs * x)
    return total[labels] / mass[labels]


def labels_from_cells(cells, n: int) -> np.ndarray:
    """Label vector of a partition given as cells of atom indices; -1 where uncovered."""
    labels = np.full(n, -1, dtype=np.int64)
    for k, cell in enumerate(cells):
        labels[np.asarray(cell, dtype=np.int64)] = k
    return labels


def covers_exactly(cells, n: int) -> bool:
    """True when the cells are nonempty, disjoint and cover 0..n-1."""
    if any(len(cell) == 0 for cell in cells):
        return False
    idx = np.concatenate([np.asarray(cell, dtype=np.int64) for cell in cells])
    return idx.size == n and np.array_equal(np.sort(idx), np.arange(n))


def kusuoka_constraint(levels: np.ndarray, weights: np.ndarray, q: float) -> float:
    """int_0^1 sigma(a)^q da with sigma(a) = sum_{levels_i >= a} w_i / levels_i.

    sigma is constant on each (levels_{i-1}, levels_i], so the integral is a
    finite sum over those intervals.
    """
    order = np.argsort(levels)
    lv, w = levels[order], weights[order]
    sigma = np.cumsum((w / lv)[::-1])[::-1]
    return float(np.sum(sigma ** q * np.diff(np.concatenate([[0.0], lv]))))


def mixture_value(x: np.ndarray, probs: np.ndarray, levels, weights) -> float:
    """sum_i w_i AVaR_{levels_i}(X)."""
    return float(sum(w * avar(x, probs, a) for a, w in zip(levels, weights)))


def k1_of(x: np.ndarray, probs: np.ndarray) -> float:
    """Smallest integer k with P(|X| <= k) > 1/2."""
    ax = np.abs(x)
    k = 0
    while float(probs[ax <= k].sum()) <= 0.5:
        k += 1
    return float(k)


# ---------------------------------------------------------------------------
# brute force, tiny inputs only
# ---------------------------------------------------------------------------


def _avar_by_thresholds(x, probs, alpha):
    """Rockafellar-Uryasev min_t {t + E[(-X - t)^+] / alpha}; the objective is
    piecewise linear in t with kinks at the values of -X, so enumerating them is exact."""
    return min(t + float(probs @ np.maximum(-x - t, 0.0)) / alpha for t in -x)


def _constraint_by_intervals(levels, weights, q):
    edges = np.concatenate([[0.0], np.sort(levels)])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        sigma = sum(w / a for a, w in zip(levels, weights) if a >= mid)
        total += sigma ** q * (hi - lo)
    return total


def selftest(seed: int = 0) -> None:
    """Raise RuntimeError when a reference disagrees with brute force."""
    rng = np.random.default_rng(seed)

    def require(ok: bool, what: str):
        if not ok:
            raise RuntimeError(f"reference self-test failed: {what}")

    for trial in range(40):
        n = int(rng.integers(1, 7))
        probs = rng.gamma(2.0, size=n)
        probs /= probs.sum()
        x = np.round(rng.normal(size=n) * 2.0, 1 if trial % 2 else 6)
        for alpha in (0.03, 0.2, 0.5, 1.0):
            ref, brute = avar(x, probs, alpha), _avar_by_thresholds(x, probs, alpha)
            require(abs(ref - brute) <= 1e-12 * max(1.0, abs(brute)), f"avar n={n} alpha={alpha}")
        for c, p in ((1.5, 2.0), (2.0, 3.0), (4.0, 1.5)):
            ref = higher_order_t(x, probs, c, p)
            grid = np.linspace(x.min() - 1.0, x.max() + 2.0 * (np.ptp(x) + 1.0), 40001)
            h = float(grid[1] - grid[0])
            u = np.maximum(grid[:, None] - x[None, :], 0.0)
            brute = float(np.min(c * (u ** p @ probs) ** (1.0 / p) - grid))
            require(ref <= brute + 1e-12 and brute <= ref + (c + 1.0) * h,
                    f"higher_order_t n={n} c={c} p={p}: {ref} vs grid {brute}")
        labels = rng.integers(0, 3, size=n)
        ce = cond_exp(x, probs, labels)
        for lab in np.unique(labels):
            cell = labels == lab
            mean = float(probs[cell] @ x[cell]) / float(probs[cell].sum())
            require(np.allclose(ce[cell], mean, rtol=0.0, atol=1e-14), "cond_exp")
        cells = [np.flatnonzero(labels == lab) for lab in np.unique(labels)]
        require(covers_exactly(cells, n), "covers_exactly")
        require(len(cells) == 1 or not covers_exactly(cells[:-1], n), "covers_exactly gap")
        require(np.array_equal(np.unique(labels, return_inverse=True)[1].ravel(),
                               labels_from_cells(cells, n)), "labels_from_cells")

        m = int(rng.integers(1, 5))
        levels = np.sort(rng.choice(np.linspace(0.05, 1.0, 20), size=m, replace=False))
        weights = rng.dirichlet(np.ones(m))
        for q in (1.5, 2.0, 3.0):
            ref = kusuoka_constraint(levels, weights, q)
            brute = _constraint_by_intervals(levels, weights, q)
            require(abs(ref - brute) <= 1e-12 * max(1.0, brute), "kusuoka_constraint")
            # Kusuoka sandwich, upper half: a feasible mixture never exceeds T
            c = ref ** (1.0 / q) * 1.0001 + 1e-9
            if c > 1.0:
                mix = mixture_value(x, probs, levels, weights)
                t = higher_order_t(x, probs, c, q / (q - 1.0))
                require(mix <= t + 1e-9 * max(1.0, abs(t)), "mixture above T")
        mix = mixture_value(x, probs, levels, weights)
        brute = sum(w * _avar_by_thresholds(x, probs, a) for a, w in zip(levels, weights))
        require(abs(mix - brute) <= 1e-12 * max(1.0, abs(brute)), "mixture_value")

    # p = 1 limit: T_{1/alpha,1} is AVaR_alpha (Rockafellar-Uryasev); the p > 1
    # reference approaches it as p -> 1
    x = np.array([-1.0, 0.5, 2.0, 3.0])
    probs = np.full(4, 0.25)
    require(abs(higher_order_t(x, probs, 2.0, 1.0001) - avar(x, probs, 0.5)) < 1e-2, "p -> 1 limit")
    require(k1_of(np.array([0.2, -1.5, 3.0]), np.full(3, 1 / 3)) == 2.0, "k1")


if __name__ == "__main__":
    selftest()
    print("reference self-test: ok")
