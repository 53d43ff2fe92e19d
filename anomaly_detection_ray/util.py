"""Small shared helpers for stage sizing."""

from __future__ import annotations


def pool(concurrency: int | tuple[int, int] | None = None) -> tuple[int, int]:
    """Normalize a concurrency spec into an autoscaling actor-pool range.

    The one actor pool left in the library is lmscore's vocabulary
    scorer (``UnigramNLL`` / ``TfIdfTopK``), whose state is a vocabulary
    that costs O(vocabulary) to deserialize; every other map stage is a
    plain function on Ray Data's task pool.

    ``(max(1, N//4), N)`` with N = session CPUs − 2 (at least 2): the
    floor gives big pools a running start — Ray's autoscaler ramps from
    the floor only as CPUs free up, and a floor of 1 left a 30-actor
    scoring pool at ~25% utilization for the first half of an HC run.
    From 4 CPUs up the N//4 floor keeps ≥3/4 of the CPUs free for the
    upstream read/shuffle tasks. Small sessions get no such margin: at
    2 CPUs ``pool(None)`` is ``(1, 2)``, the floor half the session and
    the ceiling all of it, so two pools in one Dataset execution can
    hold every CPU and starve each other (three dedup/ANN queries hung
    that way before their stages became plain functions)."""
    if isinstance(concurrency, tuple):
        return concurrency
    if concurrency is None:
        import ray

        n = max(2, int(ray.cluster_resources().get("CPU", 4)) - 2)
    else:
        n = int(concurrency)
    n = max(1, n)
    return (max(1, n // 4), n)
