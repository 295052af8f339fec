import ast
import subprocess
import sys
from pathlib import Path

import covlss

SRC = Path(covlss.__file__).parent

# public names that only tests call today, each waiting on a tracked removal:
# single_spike_variance on the criterion 5 reference
ONLY_TESTS_CALL = {"single_spike_variance"}


def test_every_public_name_is_used_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert public - used == ONLY_TESTS_CALL


def test_cli_import_loads_no_process_pool(child_env):
    # replications run on threads in one process; a process pool would load
    # multiprocessing (about 1.3 MB) into every run
    code = (
        "import sys, covlss.cli; "
        "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
