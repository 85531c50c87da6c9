"""The ``scipy.special`` kernels of the package, loaded on first use.

With scipy 1.17, importing ``scipy.special`` takes about twice as long as
importing the rest of the package and adds about 24 MB of resident memory,
yet a mean run or a VaR backtest on data never calls it.  So callers bind
this module (``from . import _special``) and look a kernel up at call time
(``_special.ndtr(z)``): the first lookup imports ``scipy.special`` and
caches the function in this module's globals, so that later lookups find
it without calling ``__getattr__``.  ``from ._special import ndtr`` would
load it at import.
"""

# the kernels in use; any other name, such as a dunder that a tool probes
# for, raises AttributeError without loading scipy.special
_KERNELS = frozenset({"expit", "gammaln", "ndtr", "ndtri", "stdtr", "stdtrit"})


def __getattr__(name):
    if name not in _KERNELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special

    kernel = globals()[name] = getattr(scipy.special, name)
    return kernel
