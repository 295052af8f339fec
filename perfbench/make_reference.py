"""Write ``reference.json``: every workload's outputs at the reference seed.

Run from the root of a checkout, only when an output change is intended
(for example a new random stream scheme), and say so in the change::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil

from child import HERE, reference_outputs
from run import OUT_ROOT
from workloads import WORKLOADS


def main() -> None:
    out = OUT_ROOT / "work" / "reference"
    values = {name: reference_outputs(name, str(out / name)) for name in WORKLOADS}
    shutil.rmtree(out, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
