"""Session set-up shared by every test module.

The ``slow`` criteria take about 6 minutes on a 2-core host; collected in
file order they would run before almost the whole fast suite. Moving them to
the end of the session (stable, so the order is otherwise unchanged) lets a
plain ``pytest`` report every fast result first. Nothing is deselected.

Hypothesis' pytest plugin reports a failing example by importing
``hypothesis.extra._patching``, whose import chain (libcst, then
``mypy_extensions.TypedDict``) raises a ``DeprecationWarning``.  Under
pyproject's ``filterwarnings = ["error"]`` that warning, raised inside a
report hook, stops the whole session with INTERNALERROR.  Importing the
module here once, with that warning ignored, makes the plugin's later
import a cached no-op; warnings raised by the tests still fail them.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # the plugin then skips its patch output too
        pass


def pytest_collection_modifyitems(session, config, items):
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
