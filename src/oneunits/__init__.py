"""Powers of 1 + x inside the one-units of F_p[[x]].

The package turns one question into executable checks: which truncated
series with constant term 1 arise as (1+x)^y for a p-adic integer y,
how to read y back off the coefficients, and how the rationality of the
series reflects the integrality of y.  Each module's ``__all__`` is the
part of it the package re-exports.
"""

from . import errors, fp, padic, periodic, ratfn, series, units
from .errors import *
from .fp import *
from .padic import *
from .periodic import *
from .ratfn import *
from .series import *
from .units import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, fp, padic, periodic, ratfn, series, units)
           for name in module.__all__] + ["__version__"]
