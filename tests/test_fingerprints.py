"""tools/fingerprints.py is the identity check of every refactor; these tests
keep it running against the current API."""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprints.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprints", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_repeats_and_sees_the_payloads():
    tool = load_tool()
    from workloads import make_config, round_seed  # on sys.path once the tool loads

    cfg = dataclasses.replace(make_config("room-qlio", round_seed(0, 0)), duration=1.0)
    assert cfg.mode == "qlio"
    first = tool.fingerprint(cfg)
    assert tool.fingerprint(cfg) == first
    fields, trajectory, payloads = first
    assert fields.startswith("(") and len(trajectory) == 64
    assert payloads != hashlib.sha256().hexdigest()
