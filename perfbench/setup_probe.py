"""One set-up, timed from outside by run.py: a fresh interpreter imports
epipool and builds the spaces the named workload uses, then exits.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py <workload>
"""

import sys

import inputs


def main(workload: str) -> None:
    import epipool as ep

    if workload == "table-report":
        ep.TrialPlan()
        for name in ep.REGISTRY:
            ep.make_space(name)
    elif workload == "kb-queries":
        for m in inputs.KB_ATOM_COUNTS:
            props = ep.PropertySpace.logical(ep.AtomTable.of(inputs.ATOM_NAMES[:m]))
            for name, _ in inputs.LOGICAL_SPACES:
                ep.make_space(name, properties=props)
    elif workload == "cli-session":
        import epipool.cli

        epipool.cli.build_parser()
    else:
        raise SystemExit(f"unknown workload: {workload}")


if __name__ == "__main__":
    main(sys.argv[1])
