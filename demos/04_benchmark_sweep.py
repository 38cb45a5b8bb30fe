"""Run a small benchmark sweep over all five row-selection methods and
print the emitted CSV/JSON artifacts.

The same sweep is available from the command line:

    rowpick bench --matrix kernel:g=12 --k 8,16 --trials 5 --out /tmp/sweep
"""

import json
import tempfile
from pathlib import Path

import rowpick as rp

spec = rp.MatrixSpec.parse("kernel:g=12")  # 144 x 144 inverse-distance kernel
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep"
    records = rp.run_bench(
        spec,
        methods=rp.METHOD_ORDER,
        k_list=[8, 16],
        seeds=range(5),
        out_path=str(out),
    )

    print(f"{len(records)} cells -> {out}.csv / {out}.json\n")
    summary = json.loads((out.parent / "sweep.json").read_text())
    print(f"{'method':>8} {'k':>4} {'mean':>10} {'min':>10} {'max':>10}")
    for method in rp.METHOD_ORDER:
        for k, cell in sorted(summary["results"][method].items(), key=lambda kv: int(kv[0])):
            print(f"{method:>8} {k:>4} {cell['mean']:10.2e} {cell['min']:10.2e} {cell['max']:10.2e}")

    print("\nfirst CSV lines:")
    for line in (out.parent / "sweep.csv").read_text().splitlines()[:4]:
        print(" ", line)

# ProjARP never loses to ARP on a shared trial seed: both decompose with
# the same pivot set, and the projection W is optimal for it
by_key = {(r.method, r.k, r.seed): r.rel_fro_error for r in records}
violations = sum(
    by_key[("ProjARP", k, s)] > by_key[("ARP", k, s)]
    for k in (8, 16) for s in range(5)
)
print(f"\nProjARP beat ARP in {10 - violations} of 10 shared-seed cells")
