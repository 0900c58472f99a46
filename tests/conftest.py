"""Suite-wide test setup: property-test draws independent of source literals.

Hypothesis 6.x draws a share of its floats and integers from a pool holding
every numeric literal of every imported local module. The derandomized
property tests would then run other examples whenever a number anywhere in
``src/`` or ``tests/`` changed. The pool is kept empty here, so the drawn
examples depend only on the strategies and the derandomization seed; the
library's own pool of edge values still feeds the draws.
"""

try:
    from hypothesis.internal.conjecture import providers as _providers
except ImportError:  # without hypothesis its property tests skip themselves
    _providers = None

if _providers is not None:
    if not callable(getattr(_providers, "_get_local_constants", None)):
        raise RuntimeError(
            "hypothesis.internal.conjecture.providers._get_local_constants is gone: "
            "find how this hypothesis version pools source literals and keep that "
            "pool empty, or the property tests' examples follow source edits"
        )
    _EMPTY = _providers.Constants()
    _providers._get_local_constants = lambda: _EMPTY
