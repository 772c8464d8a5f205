"""Text histogram of achieved-versus-optimal welfare ratios.

Runs the pair or triple procedure on seeded random instances and bins the
per-instance ratio (product of values over the optimal product, shown as the
n-th root so two- and three-agent runs are comparable).

Usage: python scripts/ratio_histogram.py [--agents {2,3}] [--count N] [--seed N]
"""

import argparse

from budgeted_efx.instances import gen_instances
from budgeted_efx.model import nsw_product
from budgeted_efx.oracles import max_nsw_allocation
from budgeted_efx.three_agents import efx_3a
from budgeted_efx.two_agents import efx_2a


def ratios_for(agents: int, count: int, seed: int):
    if agents == 2:
        for inst in gen_instances(seed, count, 2, (2, 10)):
            opt = max_nsw_allocation(inst, (0, 1), inst.all_goods())
            result = efx_2a(inst, (0, 1), opt)
            yield nsw_product(inst, result.allocation) / nsw_product(inst, opt), 2
    else:
        for inst in gen_instances(seed, count, 3, (4, 9)):
            result = efx_3a(inst)
            yield nsw_product(inst, result.allocation) / nsw_product(inst, result.opt), 3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", type=int, choices=(2, 3), default=2)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    bins = [0] * 10
    values = []
    for ratio, n in ratios_for(args.agents, args.count, args.seed):
        root = float(ratio) ** (1.0 / n)
        values.append(root)
        bins[min(int(root * 10), 9)] += 1

    width = max(bins) or 1
    for k, count in enumerate(bins):
        bar = "#" * round(40 * count / width)
        print(f"[{k/10:.1f}, {(k + 1)/10:.1f}) {count:4d} {bar}")
    print(
        f"\n{len(values)} instances | min {min(values):.3f} "
        f"| mean {sum(values)/len(values):.3f} | max {max(values):.3f}"
    )


if __name__ == "__main__":
    main()
