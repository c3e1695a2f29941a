"""A re-export kept for three ``bench/`` imports; it holds no code.

``bench/acquire.py``, ``bench/serve.py`` and ``bench/gateway_host.py``
import :func:`build_synthetic_federation` from here.  It lives in
:mod:`repro.federation.testbed` and is exported from
:mod:`repro.federation`; this module goes once the benchmark harness
imports it from there.
"""

from repro.federation.testbed import build_synthetic_federation

__all__ = ["build_synthetic_federation"]
