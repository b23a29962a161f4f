"""Run the long directional benchmark after every other test.

The ``slow`` criteria take about 15 minutes on a 2-core host; collected in
file order they would run before almost the whole fast suite. Moving them to
the end of the session (stable, so the order is otherwise unchanged) lets a
plain ``pytest`` report every fast result first. Nothing is deselected.
"""


def pytest_collection_modifyitems(session, config, items):
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
