"""Command line of the experiment drivers: ``python -m repro.experiments <name>``.

Prints the table ``repro.experiments.<name>.main()`` prints; the flags are
that function's parameters::

    python -m repro.experiments fig3
    python -m repro.experiments fig2 --machine AMD --full --csv results/fig_2.csv

``--full`` sweeps the paper's complete kernel list where the default run is a
representative subset (Fig. 2 and Fig. 4); the other drivers always run
everything.
"""

from __future__ import annotations

import argparse
import inspect

from ..machine.machine import machine_by_name
from ..suites.polybench import FIG2_KERNELS
from . import fig2, fig3, fig4, table1, table2

#: Per experiment: its ``main`` and what ``--full`` passes it.
EXPERIMENTS = {
    "fig2": (fig2.main, {"kernels": FIG2_KERNELS}),
    "fig3": (fig3.main, {}),
    "fig4": (fig4.main, {"kernels": FIG2_KERNELS}),
    "table1": (table1.main, {}),
    "table2": (table2.main, {}),
}


def _machine_name(name: str) -> str:
    try:
        machine_by_name(name)
    except KeyError as error:  # the message lists the known names
        raise argparse.ArgumentTypeError(error.args[0]) from None
    return name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments", description=__doc__)
    parser.add_argument("name", choices=sorted(EXPERIMENTS))
    parser.add_argument(
        "--machine",
        type=_machine_name,
        help="machine model name (default: the driver's own)",
    )
    parser.add_argument("--full", action="store_true", help="the paper's complete kernel list")
    parser.add_argument("--csv", metavar="PATH", help="also write the rows to this CSV file")
    arguments = parser.parse_args(argv)
    run, full = EXPERIMENTS[arguments.name]
    parameters = dict(full) if arguments.full else {}
    if arguments.machine is not None:
        if "machine" not in inspect.signature(run).parameters:
            parser.error(f"{arguments.name} runs on one machine model; it takes no --machine")
        parameters["machine"] = arguments.machine
    run(output_csv=arguments.csv, **parameters)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
