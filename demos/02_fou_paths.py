"""Simulating the fractional Ornstein-Uhlenbeck process.

Shows the exact draw on the observation grid, verifies the noiseless limit
analytically, checks the simulated second moment against the exact
quadrature value, and shows the exponential-Euler reference scheme on an
oversampled fine grid converging to the exact law.
"""

import math

import numpy as np

from fracou.fbm import FbmGrid, IncrementSeries, RngSeed, increment_autocov
from fracou.fou import ModelParams, SamplingScheme, exact_second_moment, simulate_path

params = ModelParams(theta=1.0, hurst=0.7)
scheme = SamplingScheme(n=50, delta=0.1)
print(f"dX = -theta X dt + dB, theta={params.theta}, H={params.hurst}")
print(f"n={scheme.n}, delta={scheme.delta}, T={scheme.horizon}")
print()

# --- the weighted increments xi_i driving X from one observation to the next --
grid = FbmGrid(scheme.delta, scheme.n, params.hurst, params.theta)
c = increment_autocov(grid, np.arange(4))
print("autocovariance c(k) of xi, k = 0..3:", ", ".join(f"{v:.6f}" for v in c))
print(f"c(0) vs E[X_delta^2] by quadrature: {c[0]:.10f} vs "
      f"{exact_second_moment(params, scheme.delta):.10f}")

# --- noiseless sanity check: pure exponential decay ---------------------------
decay_params = ModelParams(theta=1.0, hurst=0.7, x0=1.0)
fine = FbmGrid(scheme.fine_step, scheme.n * scheme.oversample, decay_params.hurst)
zero = IncrementSeries(grid=fine, values=np.zeros(fine.count), method="injected")
path = simulate_path(decay_params, scheme, RngSeed(0), increments=zero)
t = scheme.delta * np.arange(scheme.n + 1)
print(f"noiseless path vs e^(-t): max error {np.max(np.abs(path.x - np.exp(-t))):.2e}")

# --- Monte Carlo second moment vs exact quadrature ----------------------------
n_rep = 4000
x_end = np.array(
    [simulate_path(params, scheme, RngSeed(8, r)).x[-1] for r in range(n_rep)]
)
sq = x_end**2
exact = exact_second_moment(params, scheme.horizon)
se = sq.std(ddof=1) / math.sqrt(n_rep)
print()
print(f"E[X_T^2] exact quadrature : {exact:.5f}")
print(f"E[X_T^2] from {n_rep} exact paths : {sq.mean():.5f} +- {se:.5f}")
print(f"stationary limit H G(2H) theta^(-2H): {0.7 * math.gamma(1.4):.5f}")

# --- exponential-Euler reference: convergence in the oversampling factor ------
# With fGn dB on the fine grid of step d = delta/m, the reference gives
# X_T = sum_j e^(-theta d (N-1-j)) dB_j (N = n m fine steps), so its E[X_T^2]
# is the quadratic form of the fGn autocovariance: no Monte Carlo noise.
print()
print("exponential-Euler reference (fGn on a fine grid of step delta/m):")
print("E[X_T^2] of the reference vs the exact value as m grows")
for m in (1, 2, 8, 32, 128):
    fine = FbmGrid(scheme.delta / m, scheme.n * m, params.hurst)
    rho = increment_autocov(fine, np.arange(fine.count))
    w = np.exp(-params.theta * fine.step * np.arange(fine.count))
    # w @ toeplitz(rho) @ w, summed by lag
    form = rho[0] * (w @ w) + 2.0 * sum(
        rho[k] * (w[:-k] @ w[k:]) for k in range(1, fine.count)
    )
    print(f"  m={m:>3}: {form:.6f}, relative error {form / exact - 1.0:+.2e}")
