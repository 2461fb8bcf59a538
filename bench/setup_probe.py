"""One cold start of sparsedoa, timed in a fresh interpreter.

Usage: ``python3 bench/setup_probe.py CONFIG SEED TRACE``

Imports the CLI (and with it the whole library), parses CONFIG with its
seed replaced by SEED, builds every geometry with cold caches, then runs
trial 0 of each (geometry, algorithm) at the first SNR, which fills the
steering-grid cache.  Prints one JSON line of ``CLOCK_MONOTONIC`` stamps,
which the parent compares with the moment it spawned this process.  With
TRACE=1 the geometry builders are wrapped to count and time their calls.
"""

import dataclasses
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(config_path, seed, trace):
    t_import = time.clock_gettime(time.CLOCK_MONOTONIC)
    import sparsedoa.cli  # noqa: F401
    from sparsedoa.errors import DegenerateCoarrayError, TooManySourcesError
    from sparsedoa.harness import ExperimentConfig, run_trial

    t_parse = time.clock_gettime(time.CLOCK_MONOTONIC)
    config = dataclasses.replace(ExperimentConfig.from_file(config_path), seed=seed)

    tracer = None
    context = nullcontext()
    if trace:
        import spans

        tracer = spans.Tracer()
        context = spans.instrument(tracer, spans.GEOMETRY_TARGETS)
    with context:
        for index in range(len(config.geometries)):
            config.layout(index)
        for index in range(len(config.geometries)):
            for algorithm in config.algorithms:
                try:
                    run_trial(config, config.snr_db_list[0], algorithm, 0, index)
                except (TooManySourcesError, DegenerateCoarrayError):
                    pass
        t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    stamps = {"import": t_import, "parse": t_parse, "ready": t_ready}
    if tracer is not None:
        build = spans.layer_summary(tracer.spans).get("geometry.build", {})
        stamps["build_calls"] = build.get("calls", 0)
        stamps["build_s"] = build.get("self_s", 0.0)
    print(json.dumps(stamps))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
