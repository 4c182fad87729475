# makes tests/ importable so test modules can share the oracle helpers
import numpy as np


def pytest_report_header():
    """The numpy and BLAS build whose rounding every golden and bit-for-bit test pins."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
