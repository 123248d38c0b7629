"""Race candidate IIs concurrently - and get the serial answer.

A failed scheduling attempt at one II tells the paper's driver nothing
about the next one: each attempt is an independent feasibility query.
``MirsParams(speculation=K)`` (the CLI's ``--speculation K``;
``REPRO_SPECULATION=K`` when the field is unset) races K candidate IIs
from the active search policy over worker processes; the first
verified-feasible II cancels every strictly-higher candidate still in
flight, and the committed schedule is deterministically the lowest
feasible II - bit-identical (fingerprint-equal) to the serial search,
for every K and every policy.

This example schedules a few workbench loops on a register-starved
machine serially and at K=4, checks the fingerprints match, and prints
the race's typed ledger from ``stats.search``
(:class:`repro.obs.SearchStats`).
"""

from repro import MirsC, MirsParams, parse_config
from repro.exec import result_fingerprint
from repro.exec.engine import usable_cpus
from repro.workloads.perfect import cached_suite

machine = parse_config("2-(GP4M2-REG16)")
loops = cached_suite(4)

print(f"usable cpus: {usable_cpus()} (racing K attempts needs K cores "
      "to pay off in wall-clock; the answer is identical regardless)\n")

for loop in loops:
    serial = MirsC(
        machine, params=MirsParams(speculation=1), strict=False
    ).schedule(loop.graph.clone())
    raced = MirsC(
        machine, params=MirsParams(speculation=4), strict=False
    ).schedule(loop.graph.clone())
    identical = result_fingerprint(raced) == result_fingerprint(serial)
    stats = raced.stats.search
    status = f"II={raced.ii}" if raced.converged else "not converged"
    print(
        f"{loop.graph.name:>12}: {status:<8} "
        f"serial_attempts={stats.serial_attempts} "
        f"executed={stats.executed_attempts} "
        f"cancelled={stats.cancelled} "
        f"fingerprint_identical={identical}"
    )
    assert identical, loop.graph.name
    # Losers are provably cancelled: the race never executes more than
    # the serial ladder's attempts plus the frontier width.
    assert stats.executed_attempts < stats.serial_attempts + 4

print(
    "\nEvery K=4 schedule reproduced the serial one bit for bit; the "
    "race only changes wall-clock time and the stats.search ledger."
)
