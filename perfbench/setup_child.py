"""Time one fresh interpreter's set-up for a flight, bracketed by a reference.

Set-up is the import of quadpath, the config load, ``build_components`` and
the ``PathController`` construction.  A fixed pure-Python reference (compile,
unmarshal and execute a module-sized source, much as an import does) runs
just before and just after it, so the set-up time can be read against the
host's speed at that moment.  ``run.py`` starts this script with
``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/setup_child.py <flight.cfg>

It prints three numbers in seconds: reference before, set-up, reference
after.
"""

import marshal
import sys
import time

# about as many classes and functions as quadpath's modules define
SOURCE = "".join(
    f"class C{i}:\n"
    f"    scale = {i}\n"
    f"    def f(self, x):\n"
    f"        return [x * k for k in range({i % 7 + 3})]\n"
    f"def g{i}(a, b={i}):\n"
    f"    return {{'a': a, 'b': b, 'c': C{i}().f(a)}}\n"
    f"g{i}({i})\n"
    for i in range(120))


def reference() -> float:
    t0 = time.perf_counter()
    code = compile(SOURCE, "<reference>", "exec")
    for _ in range(4):
        exec(marshal.loads(marshal.dumps(code)), {})
    return time.perf_counter() - t0


before = reference()
t0 = time.perf_counter()
import quadpath  # noqa: E402  (the import is what is timed)
from quadpath.simulate import build_components, load_config  # noqa: E402

path, ocp, params = build_components(load_config(sys.argv[1]))
quadpath.PathController(path, ocp, params)
setup = time.perf_counter() - t0
print(repr(before), repr(setup), repr(reference()))
