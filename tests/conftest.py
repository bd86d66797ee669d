import os
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _subprocesses_import_this_checkout():
    # pytest's `pythonpath` setting reaches only this process; the CLI tests
    # also run `python -m bellclone` in child processes, which read PYTHONPATH.
    paths = [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield
