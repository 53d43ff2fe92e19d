"""The benchmark's ``--trace 1`` runs wrap library functions by name
(``perfbench/trace.py``). A rename in the library would crash every
traced run; installing every wrap here makes it fail this suite first."""

from perfbench.trace import (
    Tracer,
    install_detect_wraps,
    install_ingest_wraps,
    install_search_wraps,
    install_worker_wraps,
)


def test_every_traced_name_exists():
    from anomaly_detection_ray.index import lifecycle, segments

    orig = (segments.decode_chunks_bulk, lifecycle.encode_rows_batched)
    tr = Tracer()
    try:
        install_search_wraps(tr)
        install_ingest_wraps(tr)
        install_detect_wraps(tr, [])
        install_worker_wraps(tr)
        assert segments.decode_chunks_bulk is not orig[0]
    finally:
        tr.restore()
    assert (segments.decode_chunks_bulk, lifecycle.encode_rows_batched) == orig
