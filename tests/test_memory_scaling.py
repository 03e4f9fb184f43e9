"""Peak memory of ``train`` and ``evaluate`` does not grow with the pair count.

One rendered 64 px set of 2,000 pairs serves two hand-written manifests, one
listing a tenth of the ids the other lists. Each run happens in a child
process of its own, which reports its peak resident set size; the small and
the large run must peak within ``RSS_SLACK_MB`` of each other. When every
pair was held in memory (Python 3.11, NumPy 2.4, x86-64 Linux), the desk
train over 2,000 pairs peaked at 204.8 MB against 83.9 MB over 200, and
``evaluate`` over 1,800 ids at 85.2 MB against 51.4 MB over 180; streamed,
the gaps are 1.5 and 0.0 MB.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepattn
from sepattn.datapipe import DegradeParams, generate_synthetic_dataset

RSS_SLACK_MB = 5.0
PAIRS = 2000

CHILD = r"""
import resource, sys
from sepattn import trainer
from sepattn.datapipe import load_manifest

class Stop(Exception):
    pass

mode, root, out = sys.argv[1:]
manifest = load_manifest(root)
if mode == "train":
    step = trainer.train_step
    calls = []

    def two_steps(*args, **kwargs):
        if len(calls) == 2:
            raise Stop
        calls.append(1)
        return step(*args, **kwargs)

    trainer.train_step = two_steps
    try:
        trainer.train(manifest, trainer.desk_config(epochs=1), out)
    except Stop:
        pass
    assert len(calls) == 2
else:
    result = trainer.evaluate("identity", manifest, split="eval")
    assert len(result.model.rows) == len(manifest.ids("eval"))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
"""


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    root = tmp_path_factory.mktemp("scaling") / "set"
    return generate_synthetic_dataset(PAIRS, 64, DegradeParams(seed=2), seed=2, out_root=root)


def manifest_over(rendered, count: int, split: str, where: Path) -> Path:
    """A hand-written manifest naming the first ``count`` ids of the set, by relative path."""
    ids = sorted(rendered.files)[:count]
    up = os.path.relpath(rendered.root, where)
    files = {i: {role: f"{up}/{rel}" for role, rel in rendered.files[i].items()} for i in ids}
    where.mkdir(parents=True)
    (where / "manifest.json").write_text(json.dumps({"splits": {split: ids}, "files": files}))
    return where


def child_peak_mb(mode: str, root: Path, out: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(Path(sepattn.__file__).parents[1]), SATT_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, mode, str(root), str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "mode, split, small, large",
    [("train", "train", 200, 2000), ("eval", "eval", 180, 1800)],
)
def test_peak_rss_does_not_grow_with_the_pair_count(rendered, tmp_path, mode, split, small, large):
    peaks = {}
    for count in (small, large):
        root = manifest_over(rendered, count, split, tmp_path / f"m{count}")
        peaks[count] = child_peak_mb(mode, root, tmp_path / f"run{count}")
    assert abs(peaks[large] - peaks[small]) <= RSS_SLACK_MB, peaks
