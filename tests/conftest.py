import os
import warnings
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# hypothesis imports this module while it reports a failing test, and the
# import warns that mypy_extensions.TypedDict is deprecated.  Under
# filterwarnings = error that warning is an INTERNALERROR which ends the whole
# session, so import it here once with only that warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(autouse=True, scope="session")
def _subprocesses_import_this_checkout():
    # pytest's `pythonpath` setting reaches only this process; the CLI tests
    # also run `python -m bellclone` in child processes, which read PYTHONPATH.
    paths = [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield
