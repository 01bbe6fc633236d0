"""Run the suite's BLAS on one thread, and fix malloc's thresholds, from
its first test, so no test's thread count or allocator state depends on
which tests ran before it."""

from pressnet import tensor

tensor.pin_runtime()
