"""One audit process: runs the unmodified ``audit`` command line through
``profaudit.cli.main`` and writes what it measured to a JSON file.

    python3 perfbench/child.py --result R.json [--trace] -- report --all \
        --config C.json --out-dir OUT

Untraced, the only hook is one wrapper around the first stage function,
which records the moment the first stage starts (``setup_s`` ends there).
With ``--trace``, ``tracer.Tracer`` wraps every public function the
benchmark measures. Timestamps use ``CLOCK_MONOTONIC``, which the parent
process shares, so the parent can subtract its own start time.
"""

import json
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(1, str(_HERE))


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    """Peak resident memory of this process, in KiB.

    Not ``ru_maxrss``: Linux carries it across fork and exec, so it reads at
    least the peak of the parent, the benchmark runner. ``VmHWM`` is the
    high-water mark of this program image alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, audit_args = argv[:split], argv[split + 1:]
    result_path = Path(own[own.index("--result") + 1])
    trace = "--trace" in own

    from profaudit import cli, pipeline

    marks: dict = {}
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    first = pipeline.STAGES[0]
    stage_fn = pipeline._STAGE_FUNCS[first]

    def first_stage(cfg):
        marks.setdefault("first_stage", _clock())
        return stage_fn(cfg)

    pipeline._STAGE_FUNCS[first] = first_stage

    rc = cli.main(audit_args)
    result = {"rc": rc, "first_stage": marks.get("first_stage"),
              "maxrss_kb": peak_rss_kb()}
    if tracer is not None:
        result["trace"] = tracer.to_dict()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
