"""Set-up of one workload as a CLI user pays it on every run.

A fresh interpreter imports oddfactor.cli, builds the workload's inputs and
makes the first call into every layer the workload uses (this is where a JIT
would compile). run.py times this script from outside, interpreter start
included. Usage: python3 perfbench/probe.py <workload> <seed> <smoke 0|1>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oddfactor.cli as cli  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    workloads.build(name, seed, smoke)
    for call in workloads.warm_calls(name, seed):
        workloads.invoke(cli.main, call)
