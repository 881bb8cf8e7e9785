"""Tests for the per-shape win-rate book."""

from repro.engine.cache import ArtifactCache
from repro.lang.lower import lower_source
from repro.portfolio.winrate import DEFAULT_ORDER, WinRateBook, shape_class


def test_shape_class_buckets():
    locked = lower_source(
        "global int m, x; thread t { lock(m); x = 1; unlock(m); }"
    )
    atomic = lower_source("global int x; thread t { atomic { x = 1; } }")
    bare = lower_source("global int x; thread t { x = 1; }")
    assert shape_class(locked, "x") == "locked/small"
    assert shape_class(atomic, "x") == "atomic/small"
    assert shape_class(bare, "x") == "bare/small"


def test_unseen_shape_uses_default_order():
    book = WinRateBook()
    assert book.order("bare/small") == DEFAULT_ORDER


def test_wins_reorder_and_rates_accumulate():
    book = WinRateBook()
    for _ in range(4):
        book.record("bare/small", "circ", won=True, time_ms=50.0)
        book.record("bare/small", "racer", won=False, time_ms=1.0)
    assert book.win_rate("bare/small", "circ") == 1.0
    assert book.win_rate("bare/small", "racer") == 0.0
    assert book.order("bare/small")[0] == "circ"
    # Other shapes are unaffected.
    assert book.order("locked/small") == DEFAULT_ORDER


def test_ties_break_by_latency():
    book = WinRateBook()
    book.record("s", "circ", won=True, time_ms=100.0)
    book.record("s", "racer", won=True, time_ms=1.0)
    assert book.order("s") == ("racer", "circ", "absint")


def test_persistence_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path)
    book = WinRateBook(cache)
    book.record("bare/small", "racer", won=True, time_ms=2.0)
    book.save()
    reloaded = WinRateBook(cache)
    assert reloaded.win_rate("bare/small", "racer") == 1.0


def test_corrupt_book_relearns_from_scratch(tmp_path):
    cache = ArtifactCache(tmp_path)
    book = WinRateBook(cache)
    book.record("bare/small", "circ", won=True, time_ms=1.0)
    book.save()
    (path,) = (tmp_path / "winrates").glob("*.json")
    path.write_text("{not json")
    book = WinRateBook(cache)
    assert book.order("bare/small") == DEFAULT_ORDER
    assert cache.corrupt == 1
    book.record("bare/small", "racer", won=True, time_ms=1.0)
    book.save()
    assert WinRateBook(cache).win_rate("bare/small", "racer") == 1.0


def test_concurrent_books_merge_instead_of_overwriting(tmp_path):
    """Two processes holding the same book entry both save: the second
    save must merge its deltas into what the first wrote, not clobber
    it (the read-merge-write discipline the serve daemon relies on)."""
    a = WinRateBook(ArtifactCache(tmp_path))
    b = WinRateBook(ArtifactCache(tmp_path))
    a.record("bare/small", "racer", won=True, time_ms=1.0)
    b.record("bare/small", "circ", won=True, time_ms=2.0)
    a.save()
    b.save()  # must not lose a's racer win
    merged = WinRateBook(ArtifactCache(tmp_path))
    assert merged.win_rate("bare/small", "racer") == 1.0
    assert merged.win_rate("bare/small", "circ") == 1.0


def test_save_is_delta_based_not_cumulative(tmp_path):
    """Saving twice must not double-count: deltas are consumed by the
    save that writes them."""
    cache = ArtifactCache(tmp_path)
    book = WinRateBook(cache)
    book.record("s", "racer", won=True, time_ms=1.0)
    book.save()
    book.save()
    reloaded = WinRateBook(cache)
    cell = reloaded.counts["s"]["racer"]
    assert cell["wins"] == 1 and cell["runs"] == 1
