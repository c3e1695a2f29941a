"""A re-export kept for two ``bench/`` imports; it holds no code.

``bench/serve.py`` and ``bench/gateway_host.py`` import
:func:`frontend_from_servers` from here.  It lives in
:mod:`repro.serving.frontend` and is exported from :mod:`repro.serving`;
this module goes once the benchmark harness imports it from there.
"""

from repro.serving.frontend import frontend_from_servers

__all__ = ["frontend_from_servers"]
