"""A fault injected into the event loop, for tests of the invariant checks."""

from phasetrack import engine


def inflate_event_tv(monkeypatch, n_initial):
    """Make fronts born at events carry one unit of TV too many; the first
    n_initial fronts built, those of the t = 0 resolution, stay exact.
    Returns the list of calls so far: clear it before each further run."""
    original = engine._front_measures
    calls = []

    def inflated(mesh, l, r):
        tv, temple, boundary = original(mesh, l, r)
        calls.append(1)
        return (tv + 1.0 if len(calls) > n_initial else tv), temple, boundary

    monkeypatch.setattr(engine, "_front_measures", inflated)
    return calls
