"""The program's floats against golden.json (see tests/golden.py)."""

import golden


def test_pipeline_digests_match_golden():
    expected = golden.load()["pipeline_sha256"]
    got = golden.pipeline_digests()
    moved = {name: got[name] for name in expected if got[name] != expected[name]}
    assert not moved, golden.mismatch("seed-0 pipeline sha256", moved,
                                      {name: expected[name] for name in moved})
