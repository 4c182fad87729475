# makes tests/ importable so test modules can share the oracle helpers
import numpy as np
from hypothesis import settings

# Every run draws the same examples: a fresh checkout has no example database
# to replay, so random draws would test new inputs on each run.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


def pytest_report_header():
    """The numpy and BLAS build whose rounding every golden and bit-for-bit test pins."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
