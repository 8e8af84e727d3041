#!/usr/bin/env python3
"""Tables the share of main-thread wall time per loop from mtprof samples.

    python3 report.py samples.txt [--top N]

Maps each sampled PC to its module through the "map" lines mtprof.c
wrote, names it with `addr2line -f -C` (symbol tables suffice; libgomp
has none, so its samples are counted per module; addr2line leaves the
OpenMP clones of generic lambdas mangled, so the rules match both
spellings), then prints the share
of samples per loop category (first matching rule wins) and the top
symbols.
"""
import argparse
import collections
import os
import re
import subprocess

# (category, module regex, symbol regex); a sample counts once, in the
# first category that matches.
RULES = [
    ("libgomp waits", r"libgomp", r""),
    ("BN backward body", r"", r"stage_row|input_grad_row|BatchNorm1d(::|12)forward_impl.*TensorImpl"),
    ("BN forward body", r"", r"batch_stats|normalize_row|BatchNorm1d(::|12)forward_impl"),
    ("Adam", r"", r"Adam::step|adam_update"),
    ("conv_backward_bias", r"", r"conv_backward_bias"),
    ("linear forward", r"", r"parallel_for.*nn(::|6)linear(?!.*TensorImpl)"),
    ("avg-pool", r"", r"avg_pool"),
    ("masked conv W*M, dW*M, dM", r"", r"masked_causal_conv1d"),
    ("conv tiles", r"", r"kernels::"),
    ("libc / libm", r"libc\.so|libm\.so", r""),
]


def read(path):
    maps, pcs = [], []
    for line in open(path):
        if line.startswith("map "):
            f = line.split()
            lo, hi = (int(v, 16) for v in f[1].split("-"))
            maps.append((lo, hi, int(f[3], 16), f[6] if len(f) > 6 else "?"))
        elif line.strip():
            pcs.append(int(line, 16))
    return maps, pcs


def symbolize(maps, pcs):
    where = {}
    for pc in set(pcs):
        for lo, hi, off, mod in maps:
            if lo <= pc < hi:
                where[pc] = (mod, pc - lo + off)
                break
        else:
            where[pc] = ("?", 0)
    names = {}
    by_mod = collections.defaultdict(list)
    for pc, (mod, off) in where.items():
        by_mod[mod].append((pc, off))
    for mod, items in by_mod.items():
        syms = ["??"] * len(items)
        if os.path.exists(mod):
            out = subprocess.run(
                ["addr2line", "-f", "-C", "-e", mod] +
                [hex(off) for _, off in items],
                capture_output=True, text=True).stdout.split("\n")
            syms = out[0:2 * len(items):2]
        for (pc, _), sym in zip(items, syms):
            names[pc] = (os.path.basename(mod), sym)
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    maps, pcs = read(args.samples)
    names = symbolize(maps, pcs)
    cats, syms = collections.Counter(), collections.Counter()
    for pc in pcs:
        mod, sym = names[pc]
        syms[(mod, sym)] += 1
        for cat, mrx, srx in RULES:
            if re.search(mrx, mod) and re.search(srx, sym):
                cats[cat] += 1
                break
        else:
            cats["other"] += 1
    n = len(pcs)
    print(f"{n} samples ({n * 0.2 / 1000:.1f} s of main-thread wall time)\n")
    print("| share of main-thread wall time | loop |\n| --- | --- |")
    for cat, c in cats.most_common():
        print(f"| {100.0 * c / n:.1f}% | {cat} |")
    print(f"\ntop {args.top} symbols:")
    for (mod, sym), c in syms.most_common(args.top):
        print(f"{100.0 * c / n:6.2f}%  {mod}  {sym[:150]}")


if __name__ == "__main__":
    main()
