"""tools/pipeline_digest.py, run in-process on this checkout: the artifacts
it hashes, and the keys it strips from them."""

import importlib.util
import re
from pathlib import Path

from scoregate.cli import main
from scoregate.models import Model

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pipeline_digest.py"
_spec = importlib.util.spec_from_file_location("pipeline_digest", _PATH)
pipeline_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pipeline_digest)


def test_digest_covers_every_artifact_without_its_volatile_keys(tmp_path, monkeypatch):
    monkeypatch.delenv("SCOREGATE_SEED", raising=False)
    for side in "ab":
        (tmp_path / side).mkdir()
    first = pipeline_digest.artifacts(main, Model.load, tmp_path / "a")
    stems = ["gated", "gt", "vanilla", "att", "f1-model"]
    expected = {"synth.csv", "synth.sidecar.json", "synth.manifest.json",
                "f1.csv", "f1.sidecar.json", "f1.manifest.json",
                "rank-vanilla.stderr", "trajectory.csv", "trajectory.manifest.json"}
    expected |= {f"{stem}.json" for stem in stems} | {f"{stem}.manifest.json" for stem in stems}
    expected |= {f"{stem}.params" for stem in stems}
    expected |= {f"{stem.removesuffix('-model')}-report.json" for stem in stems}
    for out in ("rank", "rank-att", "rank-f1", "shap", "shap-att", "compare",
                "stability", "stability-att"):
        expected |= {f"{out}.json", f"{out}.manifest.json"}
    assert sorted(first) == sorted(expected)
    assert first["rank-vanilla.stderr"] == (b"error: model has no score gate to rank "
                                            b"features with; train with --model scores\n")

    # a .params artifact is each decoded parameter's name and float64 bytes, in name order
    att = Model.load(tmp_path / "a" / "att.json").params
    assert first["att.params"] == b"".join(
        name.encode() + att[name].tobytes() for name in sorted(att))
    assert first["att.params"].startswith(b"emb") and b"scores" in first["att.params"]

    # the files hold the keys; what is hashed does not, and is valid up to them
    raw = (tmp_path / "a" / "rank.manifest.json").read_text(encoding="utf-8")
    assert '"cwd"' in raw and '"elapsed_ms"' in (tmp_path / "a" / "shap.json").read_text("utf-8")
    for name, blob in first.items():
        if name.endswith(".json"):
            assert not re.search(rb'_ms"|"cwd"', blob), name
    assert first["rank.manifest.json"] == re.sub(r'  "cwd": "[^"]*",\n', "", raw).encode()

    # a second run elsewhere gives the same bytes
    assert pipeline_digest.artifacts(main, Model.load, tmp_path / "b") == first
