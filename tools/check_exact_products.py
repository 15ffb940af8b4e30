#!/usr/bin/env python3
"""Fails if a GEMM exact-product function holds a float multiply.

  python3 tools/check_exact_products.py <build-dir>/src/nn/libpoisonrec_nn.a

The kernels' exact-product rows (src/nn/kernels.cc, the ExactProducts
instances) compute every product as float(double(a)·double(b)), which
takes no subnormal assist. GCC may rewrite a scalar form of that
expression as a float multiply, which returns the same bits and takes
the assists again, so no test can see it; this check disassembles the
library (objdump -d -C) and fails on any mulss, mulps, vmulss or vmulps
in a function whose name holds ExactProducts. It also fails unless it
found the three variants' row functions at 4 lanes, and on an x86-64
host at 8 lanes too.
"""

import platform
import re
import subprocess
import sys

FLOAT_MULTIPLIES = {"mulss", "mulps", "vmulss", "vmulps"}
ROWS = ["GemmRows<false, 4, ", "GemmRows<true, 4, ", "GemmNTRows<4, "]
if platform.machine() in ("x86_64", "AMD64"):
    ROWS += ["GemmNNRows8<", "GemmTNRows8<", "GemmNTRows8<"]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    disassembly = subprocess.run(
        ["objdump", "-d", "-C", sys.argv[1]], check=True,
        stdout=subprocess.PIPE, text=True).stdout
    header = re.compile(r"^[0-9a-f]+ <(.*)>:$")
    functions = {}
    name = None
    for line in disassembly.splitlines():
        match = header.match(line)
        if match:
            name = match.group(1)
            if "ExactProducts" in name:
                functions.setdefault(name, [])
            continue
        if name is None or "ExactProducts" not in name:
            continue
        fields = line.split("\t")
        if len(fields) >= 3 and fields[2].split():
            mnemonic = fields[2].split()[0]
            if mnemonic in FLOAT_MULTIPLIES:
                functions[name].append(line.strip())
    failures = 0
    for row in ROWS:
        if not any(row in f and "ExactProducts" in f for f in functions):
            print("exact products: no %s...ExactProducts> function in %s"
                  % (row, sys.argv[1]))
            failures += 1
    for function, multiplies in sorted(functions.items()):
        for line in multiplies:
            print("exact products: float multiply in %s: %s"
                  % (function, line))
            failures += 1
    if failures:
        sys.exit(1)
    print("exact products: %d functions, no float multiply"
          % len(functions))


if __name__ == "__main__":
    main()
