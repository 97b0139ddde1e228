import pytest


@pytest.fixture(autouse=True)
def no_temporary_file_left(request):
    """Fail a test that leaves a write's ``.<name>.<pid>.tmp`` file under its ``tmp_path``.

    Every artifact is written to such a file and renamed over its target,
    so one left behind means a write that failed without cleaning up.
    """
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob(".*.tmp"))
    if left:
        pytest.fail(f"temporary files left behind: {left}")
