"""Shared utilities: validation, log-space math, statistics, formatting, RNG.

These helpers are deliberately dependency-light (NumPy plus the standard
library) so that every other subpackage can import them without cycles.
:func:`normal_ppf` is the one exception: it imports SciPy on its first
call, so importing this package never loads SciPy.
:mod:`repro.utils.fileio` holds the one crash-safe file writer.
"""

from repro.utils.formatting import (
    format_float,
    render_markdown_table,
    render_table,
)
from repro.utils.logmath import (
    log_ratio,
    logsumexp,
    safe_log,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.stats import (
    normal_cdf,
    normal_pdf,
    normal_ppf,
    normal_tail,
)
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_fraction,
    check_in,
    check_nonnegative,
    check_positive,
    check_probability_matrix,
    check_same_length,
    require,
)

__all__ = [
    "as_generator",
    "check_1d",
    "check_2d",
    "check_fraction",
    "check_in",
    "check_nonnegative",
    "check_positive",
    "check_probability_matrix",
    "check_same_length",
    "format_float",
    "log_ratio",
    "logsumexp",
    "normal_cdf",
    "normal_pdf",
    "normal_ppf",
    "normal_tail",
    "render_markdown_table",
    "render_table",
    "require",
    "safe_log",
    "spawn_generators",
]
