#!/usr/bin/env python3
"""Checks that parent and change computed the same PIT searches.

    python3 reps_identical.py <runs-dir>

For each seed, pairs `parent-search-<s>.txt` with `change-search-<s>.txt`
and compares every rep both sides ran (the shorter side's count) on
samples, val_searched, val_exported and plan_max_err from the `# detail`
line. Prints each differing rep and the totals.
"""
import json,sys,glob,re
runs=sys.argv[1]
tot=0; bad=0
for p in sorted(glob.glob(f"{runs}/parent-search-*.txt")):
    seed=re.search(r"-(\d+)\.txt$",p).group(1)
    c=p.replace("parent-","change-")
    def reps(f):
        for line in open(f):
            if line.startswith("# detail "):
                return json.loads(line[9:])["run"]["reps"]
    a,b=reps(p),reps(c)
    n=min(len(a),len(b))
    for i in range(n):
        ka={k:a[i][k] for k in ("samples","val_searched","val_exported","plan_max_err")}
        kb={k:b[i][k] for k in ("samples","val_searched","val_exported","plan_max_err")}
        tot+=1
        if ka!=kb: bad+=1; print("DIFF",seed,i,ka,kb)
    print(f"seed {seed}: parent reps {len(a)}, change reps {len(b)}, shared {n} identical {all(a[i]['val_searched']==b[i]['val_searched'] for i in range(n))}")
print(f"shared reps {tot}, differing {bad}")
