"""Schedule real code: saxpy from Python source to a certified pipeline.

The frontend (:mod:`repro.frontend`) closes the gap between source
programs and the scheduler: it parses a Python loop nest with the
stdlib ``ast`` module (no dependencies), classifies every name,
runs an exact single-subscript memory dependence test, and lowers the
body to the same :class:`~repro.graph.ddg.DependenceGraph` the
workbench loops use — real loop-carried distances included, so RecMII
is computed from the program, not defaulted.

This script walks the whole pipeline for a saxpy kernel written as
ordinary source text: parse -> analyze -> lower -> schedule -> emit ->
statically certify -> validate bit-for-bit against direct execution of
the source loop (the README's "Scheduling real code" section follows
this file).
"""

import pathlib
import tempfile

from repro import ScheduleRequest, generate_code, parse_config
from repro.analysis import certify_code
from repro.eval.pretty import format_kernel
from repro.frontend import lower_source
from repro.frontend.differential import run_source_differential

SOURCE = """\
def saxpy(a, x, y, n):
    for i in range(n):
        y[i] = a * x[i] + y[i]
"""

# 1. Parse and lower.  Any file a registered parser understands works;
#    here the kernel is written to a scratch file to show the full path.
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "saxpy.py"
    path.write_text(SOURCE)
    [kernel] = lower_source(path)

print(f"kernel {kernel.name}: {len(kernel.graph)} ops, "
      f"arrays={list(kernel.arrays)}, invariants={list(kernel.invariants)}")
for dep in kernel.mem_deps:
    # The read of y[i] must happen before the write of y[i] in the same
    # iteration: an exact distance-0 anti dependence, not a guess.
    print(f"  memory dependence: {dep.describe()}")

# 2. Schedule the lowered graph like any workbench loop.
machine = parse_config("1-(GP8M4-REG64)")
result = ScheduleRequest().make_scheduler(machine).schedule(kernel.graph)
print()
print(format_kernel(result))
print()
print(result.summary())

# 3. Emit the VLIW pipeline and prove it statically.
code = generate_code(result)
report = certify_code(code, result)
print(f"\ncertifier: {'ok' if report.ok else 'REJECTED'} "
      f"({report.bundles_checked} bundles, {report.reads_checked} reads)")
assert report.ok, report.summary()

# 4. The end-to-end proof: source semantics == lowered graph ==
#    emitted code, bit for bit, over 32 iterations.
diff = run_source_differential(kernel, result, 32, cache=False)
print(f"differential: {diff.summary()}")
assert diff.match, diff.summary()
