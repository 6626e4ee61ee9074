"""Cold start: a fresh interpreter imports quintcap and runs one operation.

Usage: python3 cold.py SRC_DIR SPEC_JSON, where SPEC_JSON names the
operation ({"kind": "report", "n": ...}, {"kind": "scan", "lo": ...,
"hi": ...} or {"kind": "decomp", "theta": [c0, c1, c2, c3]}).
"""

import json
import sys

sys.path.insert(0, sys.argv[1])
spec = json.loads(sys.argv[2])

import quintcap  # noqa: E402

if spec["kind"] == "report":
    quintcap.run_report(spec["n"], "json")
elif spec["kind"] == "scan":
    quintcap.scan_range(spec["lo"], spec["hi"], 1)
elif spec["kind"] == "decomp":
    lam = quintcap.factor_rational_prime(5).factors[0]
    quintcap.decomposition_type(quintcap.CycInt(*spec["theta"]), lam)
else:
    sys.exit(f"unknown operation kind {spec['kind']!r}")
