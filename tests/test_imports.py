"""What a fresh interpreter loads for ``import quintcap`` and for the CLI.

Every ``quintcap report`` and every cold start of the benchmark pays for
the import, so the package stays off ``dataclasses`` and what that pulls
in, and only ``verify`` loads the CAS adapter and the fixtures.
"""

import json
import subprocess
import sys

# The modules perfbench/tracing.py looks up in sys.modules to trace them.
TRACED = {
    "quintcap.cyclotomic",
    "quintcap.primes",
    "quintcap.classify",
    "quintcap.capitulation",
    "quintcap.symbols",
    "quintcap.report",
    "quintcap.scanner",
}


def _loaded_by(module):
    """The modules that importing ``module`` adds, in a fresh interpreter."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return set(json.loads(out))


def test_import_quintcap_loads_no_dataclasses_and_every_traced_module():
    loaded = _loaded_by("quintcap")
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "array"}
    assert TRACED <= loaded


def test_cli_leaves_the_cas_adapter_and_fixtures_to_verify():
    loaded = _loaded_by("quintcap.cli")
    assert not loaded & {"quintcap.cas", "quintcap.fixtures", "subprocess"}
    assert TRACED <= loaded
