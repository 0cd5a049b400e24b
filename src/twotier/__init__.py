"""Two-tier solar generation forecasting.

A day-ahead global tier (weighted k-nearest-neighbor pattern matching
and a small feed-forward network trained by Levenberg-Marquardt) plus a
real-time local tier that corrects the remainder of the day from the
low-frequency content of the forecast residuals.

The modules are the interface; import the one you need:

- `twotier.timeseries`: sampling grid, days x slots series, CSV I/O, splits
- `twotier.synth`: the seeded synthetic plant generator
- `twotier.knn`: the weighted k-NN day-ahead tier
- `twotier.nn`: the day-ahead network and its Levenberg-Marquardt training
- `twotier.correction`: the local tier, a Fourier fit of recent residuals
- `twotier.evaluation`: daily RMSE, tuning grids, replay of test days
- `twotier.persistence`: checksummed model files
- `twotier.config`: run configuration, config files and flag overrides
- `twotier.cli`: the `twotier` command
- `twotier.errors`: the error types, all derived from `TwoTierError`
- `twotier.rng`: the seeded SplitMix64 generator
"""

__version__ = "0.1.0"

# The variables OpenBLAS reads its thread count from, in its order
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
