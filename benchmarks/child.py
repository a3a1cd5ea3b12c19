"""One benchmark operation in a fresh interpreter.

    python3 benchmarks/child.py SPEC_JSON RESULT_JSON [--trace SPANS_JSONL]

SPEC_JSON describes the operation: {"kind": "cli", "argv": [...]} runs
`twinchain.cli.main(argv)`; {"kind": "relax", "n": N, "max_iters": K} runs
the pipeline `cli._relax` uses (kinked chain, middle-atom warm start, fixed-
tau Newton, chain energy) with a capped iteration budget and no file output;
{"kind": "setup"} only imports, for extra set-up samples.
The result records the CLOCK_MONOTONIC instant at which `twinchain.cli`
finished importing (the parent subtracts its spawn instant to get set-up
time), the wall time of the work, the exit code and, for traced runs, the
span summary.  Peak memory is read by the parent from wait4.
"""

import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import twinchain.cli as cli  # noqa: E402

SETUP_END = time.monotonic()


def relax(n, max_iters):
    """cli._relax at the default configuration, with max_iters capped."""
    cfg = cli.ExperimentConfig()
    wells = cli.build_wells(cfg.a)
    chain = cli.twin_chain(n, wells,
                           interface_column=cli._interface_column(cfg, n))
    warm = cli.preoptimize_middle(chain)
    report = cli.newton_minimize(warm, cli.MinimizeOptions(max_iters=max_iters))
    bd = cli.chain_energy(report.final_chain)
    return {"rescaled_energy": bd.rescaled, "converged": bool(report.converged),
            "iterations": report.iterations, "stop_reason": report.stop_reason,
            "final_gradient_norm": float(report.grad_norm_history[-1])}


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    result_path = Path(argv[2])
    spans_path = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None
    tracer = None
    if spans_path:
        import spans
        tracer = spans.Tracer().install()
    out = {"setup_end": SETUP_END}
    start = time.perf_counter()
    try:
        out["rc"] = 0
        if spec["kind"] == "cli":
            out["rc"] = cli.main(spec["argv"])
        elif spec["kind"] == "relax":
            out["relax"] = relax(spec["n"], spec["max_iters"])
    except SystemExit as exc:  # argparse usage errors
        out["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        out["rc"] = 1
    out["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(spans_path)
    result_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
