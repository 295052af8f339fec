import os
from pathlib import Path

import pytest

import covlss


@pytest.fixture
def child_env():
    """The environment of a child interpreter that imports the covlss this
    process imported: ``pythonpath`` in pyproject reaches only this process."""
    path = [str(Path(covlss.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
