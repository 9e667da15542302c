from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_names_exist(monkeypatch):
    # Tracer.install() looks every traced name up in its owner's __dict__ and raises
    # KeyError on a missing one, which would break `bench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in spans.TRACED
               if attr not in owner.__dict__]
    assert not missing
