"""Compare II-search policies on a register-starved configuration.

The paper's driver climbs the II one step per failed attempt (Figure 4,
step (6)).  This example schedules a few workbench loops on a tight
register file under both II-search policies and prints what each
search did: the II it accepted, how many attempts it spent, and the
failure kinds along the way (the full trace every result carries in
``stats.search_trace``).
"""

from collections import Counter

from repro import MirsC, MirsParams, parse_config
from repro.workloads.perfect import cached_suite

machine = parse_config("2-(GP4M2-REG16)")
loops = cached_suite(6)

for search in ("linear", "geometric"):
    engine = MirsC(machine, params=MirsParams(ii_search=search), strict=False)
    print(f"--- {search} ---")
    for loop in loops:
        result = engine.schedule(loop.graph)
        trace = result.stats.search_trace
        kinds = Counter(entry["kind"] for entry in trace)
        status = f"II={result.ii}" if result.converged else "not converged"
        print(
            f"{loop.graph.name:>12}: {status:<8} (MII={result.mii}) "
            f"attempts={len(trace)} kinds={dict(kinds)}"
        )
    print()

print(
    "The linear ladder is the paper-exact default; geometric jumps by "
    "the measured register deficit and finds the same II with fewer "
    "attempts on pressure-bound loops."
)
