"""Kernel selection: compiled extension when available, pure Python otherwise.

``BACKEND`` is "c" (the extension built from ``_mis_core.c``) or "python"
(``_mis_fallback``).  Set WELLCOVERED_PURE=1 to force the fallback, which is
useful for comparing the two implementations.
"""

from __future__ import annotations

import os

if os.environ.get("WELLCOVERED_PURE"):
    from . import _mis_fallback as _impl

    BACKEND = "python"
else:
    try:
        from . import _mis_core as _impl  # type: ignore[no-redef]

        BACKEND = "c"
    except ImportError:
        from . import _mis_fallback as _impl  # type: ignore[no-redef]

        BACKEND = "python"

maximal_independent_sets = _impl.maximal_independent_sets
count_maximal_independent_sets = _impl.count_maximal_independent_sets
independence_summary = _impl.independence_summary
well_covered_size = _impl.well_covered_size
direct_product_adj = _impl.direct_product_adj
