"""Run the suite's BLAS on one thread from its first test, so no test's
thread count depends on which tests ran before it."""

from pressnet import tensor

tensor.pin_blas_threads()
