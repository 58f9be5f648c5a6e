"""Independent recomputation helpers used to freeze expected test values.

Everything here is deliberately slow and dumb: high-precision bisection,
quadrature, exhaustive grids, and linear programming. The library under test
must agree with these within stated tolerances without sharing any code path,
but for ``info_density_exhaustive``: it refines with ``bounds``' own golden
section, so that it checks the threshold search alone, bit for bit.
"""
import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.special import betainc, betaincinv

from bayeslb import bounds, sdpi

mpmath.mp.dps = 50


def h2_mp(p: float) -> float:
    """Binary entropy in bits at 50 decimal digits, returned as float."""
    if p in (0.0, 1.0):
        return 0.0
    x = mpmath.mpf(p)
    return float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))


def h2inv_mp(y: float) -> float:
    """Inverse of binary entropy on [0, 1/2] by 200-step bisection."""
    lo, hi = mpmath.mpf(0), mpmath.mpf("0.5")
    target = mpmath.mpf(y)
    for _ in range(200):
        mid = (lo + hi) / 2
        val = -(mid * mpmath.log(mid, 2) + (1 - mid) * mpmath.log(1 - mid, 2)) \
            if mid > 0 else mpmath.mpf(0)
        if val < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def lp_np_beta(alpha: float, p, q) -> float:
    """Minimal Q-mass of a randomized test with P-mass at least alpha."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    res = linprog(c=q, A_ub=-p[None, :], b_ub=[-alpha],
                  bounds=[(0.0, 1.0)] * p.size, method="highs")
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    return float(res.fun)


def np_beta_loop(alpha: float, p, q) -> float:
    """beta_alpha(p, q) by the likelihood-ratio construction, one outcome at
    a time: outcomes in decreasing dP/dQ (ties by index), those without
    P-mass skipped, are taken whole while their P-mass stays below alpha,
    and the boundary outcome is taken fractionally."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if alpha == 0.0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0.0, p / np.where(q > 0.0, q, 1.0), np.inf)
    order = np.lexsort((np.arange(p.size), -ratio))
    beta = acc = 0.0
    for z in order:
        if p[z] == 0.0:
            continue
        if acc + p[z] < alpha:
            acc += p[z]
            beta += q[z]
        else:
            return float(beta + q[z] * (alpha - acc) / p[z])
    return float(beta)


def _d2(a: float, b: float) -> float:
    """Bernoulli divergence d2(a || b) in bits; ValueError for b outside [0, 1]."""
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"beta {b!r} lies outside [0, 1]")
    if b in (0.0, 1.0):
        return 0.0 if a == b else math.inf
    out = 0.0
    if a > 0.0:
        out += a * math.log2(a / b)
    if a < 1.0:
        out += (1.0 - a) * math.log2((1.0 - a) / (1.0 - b))
    return out


def np_properties_loop(p, q, rows, alphas, gammas) -> tuple[float, float, float]:
    """(data-processing, weak-converse, strong-converse) violations of
    ``info.verify_np_properties``, as a loop over the levels and, per level,
    over the thresholds, with every beta from ``np_beta_loop``. Raises
    ValueError where a pushed-forward entry rounds above 1 or a beta leaves
    [0, 1], which the library refused before it clipped the pushforward."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pk, qk = p @ rows, q @ rows
    if np.any(pk > 1.0) or np.any(qk > 1.0):
        raise ValueError("a pushed-forward entry lies above 1")
    sup = p > 0.0
    d_pq = math.inf if np.any(q[sup] == 0.0) else \
        float((p[sup] * np.log2(p[sup] / q[sup])).sum())
    inf_ratio = float((q[sup] / p[sup]).min())
    with np.errstate(divide="ignore"):
        fwd_ratio = np.where(q > 0.0, p / np.where(q > 0.0, q, 1.0), np.inf)
    dpi_v = weak_v = strong_v = 0.0
    for alpha in alphas:
        beta = np_beta_loop(alpha, p, q)
        dpi_v = max(dpi_v, beta - np_beta_loop(alpha, pk, qk))
        d_ab = _d2(alpha, beta)
        if not d_ab <= d_pq:
            weak_v = max(weak_v, d_ab - d_pq)
        for gamma in gammas:
            tail = float(p[sup][fwd_ratio[sup] >= gamma].sum())
            rhs = (1.0 - gamma * inf_ratio) * tail
            strong_v = max(strong_v, alpha - gamma * beta - rhs)
    return dpi_v, weak_v, strong_v


def quad_bern_uniform_mi(n: int) -> float:
    """I(W; X^n) for W uniform on [0,1] and X_i | W Bernoulli(W), by quadrature.

    The sample is exchangeable, so it suffices to mix over the count k:
    the marginal P(k) is uniform on {0..n} and
    I = sum_k binom(n,k) int w^k (1-w)^(n-k) log2(w^k (1-w)^(n-k) (n+1) binom(n,k)) dw.
    """
    total = 0.0
    for k in range(n + 1):
        c = math.comb(n, k)

        def integrand(w, k=k, c=c):
            if w in (0.0, 1.0):
                return 0.0
            lik = w ** k * (1.0 - w) ** (n - k)
            if lik == 0.0:
                return 0.0
            return c * lik * math.log2(lik * (n + 1) * c)

        val, _ = quad(integrand, 0.0, 1.0, limit=200)
        total += val
    return total


def bern_uniform_mi_mp(n: int) -> float:
    """I(W; X^n) in bits for W uniform on [0,1], from the digamma form at 50 digits.

    I = log2(n+1) + mean_k [ln C(n,k) + k psi(k+1) + (n-k) psi(n-k+1)
    - n psi(n+2)] / ln 2, the posterior after k ones being Beta(k+1, n-k+1).
    """
    total = mpmath.mpf(0)
    for k in range(n + 1):
        total += (mpmath.log(mpmath.binomial(n, k)) + k * mpmath.digamma(k + 1)
                  + (n - k) * mpmath.digamma(n - k + 1) - n * mpmath.digamma(n + 2))
    return float(mpmath.log(n + 1, 2) + total / ((n + 1) * mpmath.log(2)))


def bern_uniform_mi_barnes(n: int) -> float:
    """The same I(W; X^n) at 60 digits in time independent of n: the sum of
    ln C(n, k) over k is (n+1) ln Gamma(n+1) - 2 ln G(n+2), G the Barnes G
    function, and the digamma terms add up to -n(n+1)/2."""
    with mpmath.workdps(60):
        z = mpmath.mpf(n) + 1
        total = z * mpmath.loggamma(z) - 2 * mpmath.log(mpmath.barnesg(z + 1))
        return float(mpmath.log(z, 2) + (total - n * z / 2) / (z * mpmath.log(2)))


def bern_uniform_bayes_risk(n: int) -> float:
    """Bayes risk E|W - median(W | X^n)| for W uniform and n Bernoulli(W) draws.

    The count K is uniform on {0..n} and W | K=k ~ Beta(a, b) with a = k+1,
    b = n-k+1. At the posterior median m, P(W <= m) = 1/2, so
    E|W - m| = E[W] - 2 E[W; W <= m] = a/(a+b) (1 - 2 I_m(a+1, b)).
    """
    k = np.arange(n + 1, dtype=float)
    a, b = k + 1.0, n - k + 1.0
    median = betaincinv(a, b, 0.5)
    return float(np.mean(a / (a + b) * (1.0 - 2.0 * betainc(a + 1.0, b, median))))


def beta_posterior_tv_extremes(n: int) -> float:
    """Total variation between the posteriors after all-zeros and all-ones.

    Under the uniform prior the posterior after seeing k ones in n Bernoulli
    draws is Beta(k+1, n-k+1); the max-TV pair is k = 0 versus k = n.
    """

    def diff(w):
        f0 = (n + 1) * (1.0 - w) ** n
        fn = (n + 1) * w ** n
        return abs(f0 - fn)

    val, _ = quad(diff, 0.0, 1.0, limit=200)
    return 0.5 * val


def _beta_cdf_int(a: int, b: int, x: float) -> float:
    """CDF of Beta(a, b) with integer parameters: P[Bin(a+b-1, x) >= a]."""
    m = a + b - 1
    return float(sum(math.comb(m, j) * x ** j * (1.0 - x) ** (m - j)
                     for j in range(a, m + 1)))


def _beta_density_coeffs(n: int, s: int) -> np.ndarray:
    """Monomial coefficients of (n+1) C(n,s) w^s (1-w)^{n-s}."""
    coeffs = np.zeros(n + 1)
    lead = (n + 1) * math.comb(n, s)
    for j in range(n - s + 1):
        coeffs[s + j] = lead * math.comb(n - s, j) * (-1) ** j
    return coeffs


def _beta_tv(n: int, s: int, sp: int) -> float:
    """Total variation between Beta(s+1, n-s+1) and Beta(sp+1, n-sp+1)."""
    diff = _beta_density_coeffs(n, s) - _beta_density_coeffs(n, sp)
    roots = np.polynomial.polynomial.polyroots(diff)
    cuts = [0.0]
    for r in roots:
        if abs(r.imag) < 1e-9 and 1e-12 < r.real < 1.0 - 1e-12:
            cuts.append(float(r.real))
    cuts.append(1.0)
    cuts.sort()
    gap = [
        _beta_cdf_int(s + 1, n - s + 1, x) - _beta_cdf_int(sp + 1, n - sp + 1, x)
        for x in cuts
    ]
    return 0.5 * float(sum(abs(b - a) for a, b in zip(gap, gap[1:])))


def dobrushin_bern_uniform_posterior(n: int) -> float:
    """Dobrushin coefficient of the posterior channel of a uniform Bernoulli bias.

    With W uniform on [0, 1] and n conditionally independent bits, the
    posterior given a sample with s ones is Beta(s+1, n-s+1); the coefficient
    is the largest total variation between two such rows, computed exactly
    via polynomial root isolation (the value is 1 - 2^{-n}, attained by the
    all-zeros and all-ones samples).
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    return max(_beta_tv(n, s, sp) for s in range(n + 1) for sp in range(s + 1, n + 1))


def mmae_gauss(sd: float) -> float:
    """Mean absolute value of a centered Gaussian with standard deviation sd."""
    return sd * math.sqrt(2.0 / math.pi)


def grid_mi_smallball(mi: float, smallball, lo: float = 1e-9, hi: float = 1.0,
                      points: int = 30000) -> float:
    """Dense-grid direct maximization of rho (1 - (mi+1)/log2(1/L(rho)))."""
    best = 0.0
    for rho in np.geomspace(lo, hi, points):
        mass = smallball(rho)
        if not 0.0 < mass < 1.0:
            continue
        val = rho * (1.0 - (mi + 1.0) / math.log2(1.0 / mass))
        best = max(best, val)
    return best


def majority_risk_mp(T: int, eps: float) -> mpmath.mpf:
    """Exact error probability of a T-fold repetition code over a BSC(eps)
    with majority decoding, ties decided by a fair coin, at 50 digits."""
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        terms = [mpmath.binomial(T, d) * e ** d * (1 - e) ** (T - d)
                 * (mpmath.mpf(1) / 2 if 2 * d == T else 1)
                 for d in range((T + 1) // 2, T + 1)]
        return mpmath.fsum(terms)


def ceo_requirement_mp(d: int, r: float, var_w: float, alpha: float) -> float:
    """CEO sum-rate requirement h(W) - log2(V_d (alpha r e/d)^(d/r) Gamma(1+d/r)).

    Evaluated at 50 digits in the textbook (not log-space) arrangement, so
    none of the factors can overflow or underflow.
    """
    d, r, var_w, alpha = (mpmath.mpf(x) for x in (d, r, var_w, alpha))
    h_w = d / 2 * mpmath.log(2 * mpmath.pi * mpmath.e * var_w, 2)
    volume = mpmath.pi ** (d / 2) / mpmath.gamma(d / 2 + 1)
    return float(h_w - mpmath.log(volume * (alpha * r * mpmath.e / d) ** (d / r)
                                  * mpmath.gamma(1 + d / r), 2))


def ball_entropy_mp(d: int, radius: float) -> float:
    """log2 of the volume of the d-ball of the given radius, 50 digits."""
    d, radius = mpmath.mpf(d), mpmath.mpf(radius)
    return float(mpmath.log(mpmath.pi ** (d / 2) / mpmath.gamma(d / 2 + 1)
                            * radius ** d, 2))


def ncx2_cdf_mp(x: float, d: int, lam: float) -> float:
    """The noncentral chi-square CDF F(x; d, lam) at 30 digits, for thresholds
    where scipy's is NaN: E over the chi_{d-1} norm R of the remaining
    coordinates of P(|N(sqrt(lam), 1)| <= sqrt(x - R^2)), by tanh-sinh
    quadrature over R within 12 of sqrt(d - 1)."""
    with mpmath.workdps(30):
        x, lam = mpmath.mpf(x), mpmath.mpf(lam)
        a, rx = mpmath.sqrt(lam), mpmath.sqrt(x)
        if d == 1:
            return float(mpmath.ncdf(rx - a) - mpmath.ncdf(-rx - a))
        k = mpmath.mpf(d - 1)
        log_norm = (k / 2 - 1) * mpmath.log(2) + mpmath.loggamma(k / 2)

        def integrand(r):
            v = mpmath.sqrt(max(0, x - r * r))
            return mpmath.exp((k - 1) * mpmath.log(r) - r * r / 2 - log_norm) \
                * (mpmath.ncdf(v - a) - mpmath.ncdf(-v - a))

        lo, hi = max(0, mpmath.sqrt(k) - 12), min(rx, mpmath.sqrt(k) + 12)
        if lo >= hi:
            return 0.0
        return float(mpmath.quad(integrand, [lo + (hi - lo) * i / 4 for i in range(5)]))


def diff_entropy_constant_mp(d: int, r: float) -> float:
    """(d / (r e)) (V_d Gamma(1 + d/r))^(-r/d) at 50 digits."""
    d, r = mpmath.mpf(d), mpmath.mpf(r)
    volume = mpmath.pi ** (d / 2) / mpmath.gamma(d / 2 + 1)
    return float(d / (r * mpmath.e) * (volume * mpmath.gamma(1 + d / r)) ** (-r / d))


def _beta_abs_dev(k: int, n: int, c) -> mpmath.mpf:
    """E|W - c| for W ~ Beta(k+1, n-k+1), the posterior after k ones in n.

    Uses |W - c| = (W - c) + 2 (c - W)^+ and E[W; W <= c] = mean I_c(a+1, b).
    """
    a, b, c = mpmath.mpf(k + 1), mpmath.mpf(n - k + 1), mpmath.mpf(c)
    mean = a / (a + b)
    below = mpmath.betainc(a, b, 0, c, regularized=True)
    mean_below = mean * mpmath.betainc(a + 1, b, 0, c, regularized=True)
    return mean - c + 2 * (c * below - mean_below)


def _midpoint(count: int, n: int, bits: float) -> mpmath.mpf:
    """Midpoint of the cell of count/n among round(2^bits) equal cells of [0, 1]."""
    cells = round(2 ** bits)
    if cells <= 1:
        return mpmath.mpf(1) / 2
    idx = min(count * cells // n, cells - 1)
    return mpmath.mpf(2 * idx + 1) / (2 * cells)


def quantized_count_risk(n: int, bits: float) -> float:
    """Risk E|W - midpoint(K/n)| with W uniform and K | W ~ Bin(n, W).

    K is uniform on {0..n} and W | K=k ~ Beta(k+1, n-k+1), so the risk is
    sum_k 1/(n+1) E|W - c_k|. This is the noiseless bern-bsc scheme with b
    bits, and the colocated parity scheme with mb bits (its parity mean is a
    Bin(n, W) count over n).
    """
    total = sum(_beta_abs_dev(k, n, _midpoint(k, n, bits)) for k in range(n + 1))
    return float(total / (n + 1))


def _repetition_risk(n: int, eps: float, T: int, bits: int, encode, decode) -> float:
    """Risk of sending the ``bits``-bit word encode(K) over a BSC(eps).

    Each bit is sent floor(T / bits) times and decoded by majority with ties
    to 0; the estimate is decode(V) for the decoded word V. Every decoded
    word is enumerated with its probability given k.
    """
    looks = T // bits
    eps = mpmath.mpf(eps)
    flips = [mpmath.binomial(looks, f) * eps ** f * (1 - eps) ** (looks - f)
             for f in range(looks + 1)]
    # a sent 0 decodes to 1 on a strict majority of flips; a sent 1 decodes
    # to 0 when its ones are at most half the looks
    err = [sum(p for f, p in enumerate(flips) if 2 * f > looks),
           sum(p for f, p in enumerate(flips) if 2 * (looks - f) <= looks)]
    total = mpmath.mpf(0)
    for k in range(n + 1):
        word, mass = encode(k), {}
        for v in range(2 ** bits):
            prob = mpmath.mpf(1)
            for j in range(bits):
                sent = (word >> j) & 1
                prob *= err[sent] if (v >> j) & 1 != sent else 1 - err[sent]
            mass[decode(v)] = mass.get(decode(v), 0) + prob
        total += sum(p * _beta_abs_dev(k, n, c) for c, p in mass.items())
    return float(total / (n + 1))


def repetition_count_risk(n: int, eps: float, T: int) -> float:
    """Risk of sending the count K's bit_length(n) bits, each repeated over a
    BSC(eps); the estimate is min(K_hat, n) / n."""
    return _repetition_risk(n, eps, T, n.bit_length(), lambda k: k,
                            lambda v: mpmath.mpf(min(v, n)) / n)


def cell_repetition_risk(n: int, bits: int, eps: float, T: int) -> float:
    """Risk of sending the ``bits``-bit midpoint cell of K/n, each bit
    repeated over a BSC(eps); the estimate is the decoded cell's midpoint."""
    cells = 2 ** bits
    return _repetition_risk(n, eps, T, bits,
                            lambda k: min(k * cells // n, cells - 1),
                            lambda v: mpmath.mpf(2 * v + 1) / (2 * cells))


def _kl_shifted_1d(base, diff) -> float:
    """D(base + diff || base) in bits for one mass-preserving diff, one
    vector at a time: the scalar form of each divergence in ``sdpi._ratio``
    (Bregman form, series below |u| = 1e-2, base == 0 left out)."""
    mask = base > 0.0
    b = base[mask]
    u = diff[mask] / b
    g = np.empty_like(u)
    small = np.abs(u) <= 1e-2
    us = u[small]
    g[small] = us * us * (1.0 / 2.0 - us * (1.0 / 6.0 - us * (
        1.0 / 12.0 - us * (1.0 / 20.0 - us * (1.0 / 30.0 - us / 42.0)))))
    ub = u[~small]
    dead = ub <= -1.0
    ub = np.where(dead, 0.0, ub)
    g[~small] = np.where(dead, 1.0, (1.0 + ub) * np.log1p(ub) - ub)
    return float((b * g).sum()) / math.log(2.0)


def _grid_then_golden(f, grid):
    """Scalar grid maximization of f, then ``bounds``' golden section between
    the neighbours of the first maximum; returns (argument, value)."""
    vals = np.array([f(x) for x in grid])
    i = int(np.argmax(vals))
    if not math.isfinite(vals[i]):
        return float(grid[i]), float(vals[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    x, fx = bounds._golden_max(f, float(lo), float(hi))
    if fx > vals[i]:
        return float(x), float(fx)
    return float(grid[i]), float(vals[i])


def info_density_exhaustive(prob_below, smallball, gamma_grid=None,
                            inf_ratio=None):
    """``bounds.lb_info_density`` as a loop over every threshold, each scanning
    the radius grid one point at a time and refining by golden section; the
    first threshold with the largest value wins. Returns (value, rho, gamma)
    before clamping, with rho and gamma None if no threshold beats -inf."""
    rho_grid = np.geomspace(1e-6, 1.0, 200)
    if gamma_grid is None:
        gamma_grid = np.geomspace(1e-3, 1e3, 200)
    best, rho_best, gamma_best = -math.inf, None, None
    for gamma in gamma_grid:
        p_below = float(prob_below(math.log2(gamma)))
        extra = gamma * inf_ratio * (1.0 - p_below) if inf_ratio is not None else 0.0

        def objective(rho, _g=gamma, _p=p_below, _e=extra):
            return rho * (_p - _g * float(smallball(rho)) + _e)

        rho_star, val = _grid_then_golden(objective, rho_grid)
        if val > best:
            best, rho_best, gamma_best = val, rho_star, float(gamma)
    return best, rho_best, gamma_best


def sample_xor_block(w: float, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """One m x n sample array from the parity-coupled law with parameter w.

    Column parities are Bern(w); each column is uniform over the vectors
    with its parity, realized by drawing the first m-1 entries fair and
    setting the last to match. The ``xor`` samplers of ``bayeslb.simulate``
    draw only what their estimators read from this law.
    """
    parity = (rng.random(n) < w).astype(np.int64)
    block = np.empty((m, n), dtype=np.int64)
    block[:m - 1] = (rng.random((m - 1, n)) < 0.5).astype(np.int64)
    block[m - 1] = np.bitwise_xor(block[:m - 1].sum(axis=0) % 2, parity)
    return block


def _pmf_mp(p) -> list:
    """``p`` at 50 digits, rescaled to sum to exactly 1."""
    p = [mpmath.mpf(float(x)) for x in p]
    total = mpmath.fsum(p)
    return [x / total for x in p]


def log_ratios_mp(mu, rows, nu) -> np.ndarray:
    """log(nu / mu), then log(nu K / mu K) on the outputs mu K reaches, in
    nats at 50 digits, from the float entries as given, with nu first moved
    along mu to mu's mass, as ``sdpi._ratio`` scores it; the logs that
    kernel hands the mirror ascent."""
    with mpmath.workdps(50):
        nu, mu = ([mpmath.mpf(float(x)) for x in p] for p in (nu, mu))
        excess = mpmath.fsum(nu) - mpmath.fsum(mu)
        nu = [a - excess * b for a, b in zip(nu, mu)]
        push = [[mpmath.fsum(p[x] * mpmath.mpf(float(row[y])) for x, row in enumerate(rows))
                 for y in range(len(rows[0]))] for p in (nu, mu)]
        pairs = list(zip(nu, mu)) + [(a, b) for a, b in zip(*push) if b > 0]
        return np.array([float(mpmath.log(a / b)) for a, b in pairs])


def kl_pair_mp(mu, rows, nu) -> tuple[float, float]:
    """D(nu || mu) and D(nu K || mu K) in bits, each the plain sum of
    p log2(p / q) at 50 digits more than the smallest positive entry's
    decimal exponent. nu, mu and each row of K are first rescaled to sum to
    1: a float pmf misses 1 by about 1e-16, which would move a divergence of
    1e-12 by 1e-4. The extra digits keep the sum exact when an entry of
    1e-55 next to 1 makes the divergence as small as that entry."""
    tiny = min(float(x) for x in np.concatenate([np.ravel(mu), np.ravel(rows), np.ravel(nu)])
               if x > 0.0)
    with mpmath.workdps(50 + max(0, -math.floor(math.log10(tiny)))):
        return _kl_pair_mp(mu, rows, nu)


def _kl_pair_mp(mu, rows, nu) -> tuple[float, float]:
    nu, mu, rows = _pmf_mp(nu), _pmf_mp(mu), [_pmf_mp(row) for row in rows]

    def push(p):
        return [mpmath.fsum(px * rows[x][y] for x, px in enumerate(p))
                for y in range(len(rows[0]))]

    def kl(p, q):
        return mpmath.fsum(pi * mpmath.log(pi / qi, 2) for pi, qi in zip(p, q) if pi > 0)

    return float(kl(nu, mu)), float(kl(push(nu), push(mu)))


def mirror_ascent(mu, K, ratio, nu) -> tuple[np.ndarray, np.ndarray]:
    """``sdpi._ascend`` as it was before its Newton trial, kept as the
    reference that the search must match or beat: mirror ascent of
    D(nu K || mu K) / D(nu || mu) from each row of ``nu`` for a full-support
    mu, scored by ``ratio``, the ``sdpi._ratio(mu, K)`` map; returns each
    end nu and its ratio, -inf if below the floor. Each iteration scores two
    trials per row in one call, nu * exp(s grad) and mu + e^l (nu - mu); a
    row takes the best if it scores higher, with the logs scored with it
    for its gradient. s doubles on a rise, else halves; l doubles, else
    flips sign and halves (1e-8 <= |l| <= 1). Stops after 500 iterations,
    or 10 that raised the best ratio at most 1e-12 relative.
    """
    (S, k), Ku = nu.shape, K[:, mu @ K > 0.0]
    # rows S to 3S hold the trials; a row is nu, its ratio, D(nu || mu), logs
    pool = np.empty((3 * S, 2 * k + 2 + Ku.shape[1]))
    pool[:S, :k] = nu
    pool[:S, k], pool[:S, k + 1], pool[:S, k + 2:] = ratio(nu - mu, logs=True)
    nu, trials, fs, din = pool[:S, :k], pool[S:, :k], pool[:, k].reshape(3, S), pool[:S, k + 1]
    f, lin, lout, rows = fs[0], pool[:S, k + 2:2 * k + 2], pool[:S, 2 * k + 2:], np.arange(S)
    step, lam, best = np.ones(S), np.full(S, 0.25), [float(f.max())]
    for _ in range(500):
        # the gradient up to a constant per row and a scale; f is -inf or >= 0
        grad = ((lout @ Ku.T - np.maximum(f, 0.0)[:, None] * lin)
                / np.maximum(din, sdpi._FLOOR)[:, None])
        z = np.where(nu > 0.0, step[:, None] * grad, -math.inf)
        trials[:S] = nu * np.exp(z - z.max(axis=1, keepdims=True))
        trials[S:] = np.maximum(mu + np.exp(lam)[:, None] * (nu - mu), 0.0)
        trials /= trials.sum(axis=1, keepdims=True)
        pool[S:, k], pool[S:, k + 1], pool[S:, k + 2:] = ratio(trials - mu, logs=True)
        step *= np.where(fs[1] > f, 2.0, 0.5)
        lam *= np.where(fs[2] > f, 2.0, -0.5)
        lam = np.copysign(np.minimum(np.maximum(np.abs(lam), 1e-8), 1.0), lam)
        pool[:S] = pool[fs.argmax(axis=0) * S + rows]  # the first best of each row's three
        best.append(float(f.max()))
        if len(best) > 10 and not best[-1] > best[-11] * (1.0 + 1e-12):
            break
    return nu.copy(), f.copy()
