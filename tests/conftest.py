"""Session set-up shared by the test modules.

When a property fails, Hypothesis imports ``hypothesis.extra._patching`` to
suggest an explicit example. That import reaches ``mypy_extensions``, whose
``DeprecationWarning`` the ``filterwarnings = ["error"]`` setting turns into
an INTERNALERROR that ends the whole session. Importing it once here, with
that warning ignored, lets a failing property report its example and the
remaining tests run.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401  (libcst is optional)
