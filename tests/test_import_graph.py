"""Import graph: the serving stack starts without scipy.

Only Bayesian-optimisation tuning (``repro.ml.bayesopt``) may import
scipy, and only inside the functions that call it.  A server or worker
process that imported scipy at load would pay for it on every start.
"""

import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(repro.__file__))

_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import repro.core.pipeline
import repro.ml
import repro.serve
import repro.serve.http
from repro.serve import AuditService, ClaimScoreStore

store = ClaimScoreStore.load_sharded(sys.argv[1])
service = AuditService(store)
assert store.records_json(store.sus_order[:10])
service.close()
print("ok")
"""


def test_serving_stack_imports_without_scipy(tiny_score_store, tmp_path):
    bundle = str(tmp_path / "store")
    tiny_score_store.save_sharded(bundle)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, bundle],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
