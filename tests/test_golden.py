"""Report bytes against the golden manifest written by `scripts/golden.py`.

Criterion 9 runs each command twice in one process; this test compares the
bytes with those stored when the manifest was last written, so a byte
change between versions shows up here by command.
"""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_commands_match_manifest():
    stored = json.loads(golden.MANIFEST.read_text())
    results = golden.run_all()
    differ = golden.differing(stored["commands"], results)
    written = {k: stored[k] for k in golden.versions()}
    assert not differ, (
        f"{len(differ)} of {len(results)} commands differ from the manifest "
        f"(written with {written}, running {golden.versions()}): {differ}"
    )
