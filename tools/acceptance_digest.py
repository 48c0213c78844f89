"""Print one sha256 per acceptance payload (criteria 3-9), so two checkouts
can be shown to give the same results.

    python3 tools/acceptance_digest.py [--tree DIR]

It loads ``DIR/tests/test_acceptance.py`` with ``DIR/src`` first on
``sys.path`` (``DIR`` defaults to this checkout), builds the c3-c9 payloads
through that file's own builders, and hashes each as criterion 10 compares
them: canonical JSON (``sort_keys``) with every ``*_ms`` key stripped. BLAS is
pinned to one thread, ``SCOREGATE_SEED`` is unset, and the CLI's stdout is
captured. It runs the acceptance fits once, about 40 s on 2 vCPUs. ``diff`` of
the output for two checkouts (a parent commit's export, say) is empty when
their payloads are byte-identical.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

CRITERIA = ("c3", "c4", "c5", "c6", "c7", "c8", "c9")


def digests(tree: Path) -> dict[str, str]:
    """Each c3-c9 payload of ``tree``'s acceptance file, by name, as the
    sha256 of its timing-stripped canonical JSON."""
    sys.path.insert(0, str(tree / "src"))
    spec = importlib.util.spec_from_file_location(
        "acceptance", tree / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    out = {}
    for name in CRITERIA:  # in order: c9 explains c3's cached seed-0 model
        with contextlib.redirect_stdout(io.StringIO()):
            payload = acceptance.get(name, getattr(acceptance, f"build_{name}"))
        blob = acceptance.canonical(acceptance.strip_timing(payload)).encode()
        out[name] = hashlib.sha256(blob).hexdigest()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]))
    args = parser.parse_args()
    os.environ.pop("SCOREGATE_SEED", None)
    for name, digest in digests(Path(args.tree).resolve()).items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
