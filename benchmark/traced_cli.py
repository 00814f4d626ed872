"""Run the hazlab CLI with the span tracer installed, then write the run's
per-layer metrics as JSON; exits with the CLI's exit code.

    python3 benchmark/traced_cli.py LAYERS.json run --config cfg.json --threads 2

Spans are recorded in this process only: worker processes that `hazlab run`
starts for n_seeds > 1 are not traced.
"""

import json
import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from hazlab import cli
    code = cli.main(argv)
    with open(out, "w") as f:
        json.dump(spans.layer_metrics(tracer.spans), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
