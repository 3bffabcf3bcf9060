#!/usr/bin/env bash
# Paired host-clock comparison of the end-to-end benchmark: a parent
# revision against the working tree, one seed, one workload or several.
#
#   scripts/host_pairs.sh <parent-rev> <workload[,workload...]> [pairs=10] [seed=1]
#
# A comma-separated list runs the pairs and the traced reps below for each
# workload in turn, from the same two builds, and reports each workload
# on its own: one invocation checks that no workload got worse.
#
# Builds `benchmark/` twice in a temporary directory — once from
# `git archive <parent-rev>`, once from the working tree (through a
# target directory of its own) — then runs `run --workload W --seed S
# --reps 7` as alternating pairs, the side that goes first swapping every
# pair. Each run reports the fastest of its reps and the process's peak
# resident memory. For host_cpu_s, host_wall_s and host_peak_rss_mib the
# script prints each side's median and quartiles, how many pairs the
# working tree won (lower is better for all three), and whether the gap
# between the medians is wider than the parent's interquartile range. Every pair also compares
# the two sides' simulated end-to-end cells (sim_*, stored_per_logical,
# ok_ops_share), which a host-only change must leave bit for bit: the
# script says "simulated cells identical", or names the first cell that
# differs with both values. A difference is reported, not an error.
#
# After the pairs, each side runs once more as `--reps 1 --trace`, and the
# script prints the traced allocation counters (`allocs`, `alloc_mib`) of
# `backup_prepared`, `run_dedup2`, `run_gc`, `restore_run` and
# `verify_run` (the same walk, sending nothing) side by side. They count
# what each call allocates, not how fast it runs, so one rep a side says
# it: only the growth of the randomly keyed fingerprint tables moves them
# between runs, by an allocation or two. Beside them
# stand the same calls' traced `host_s`, one rep's host time: a pointer to
# where time went, not a measurement (the pairs are that).
#
# Nothing is written under benchmark/ or into .git; the temporary
# directory goes when the script exits.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-rev> <workload[,workload...]> [pairs=10] [seed=1]" >&2
    exit 2
fi
rev=$1
workloads=$2
pairs=${3:-10}
seed=${4:-1}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
rev=$(git -C "$root" rev-parse --short "$rev")

build() { # <checkout> <target-dir>
    CARGO_TARGET_DIR=$2 cargo build --release --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
echo "building $rev and the working tree ..." >&2
build "$tmp/parent" "$tmp/parent-target"
build "$root" "$tmp/change-target"

run() { # <side>: appends "<cpu> <wall> <rss>" to $tmp/<side>.txt
    "$tmp/$1-target/release/debar-benchmark" run --workload "$workload" \
        --seed "$seed" --reps 7 --out "$tmp/$1.json" >"$tmp/$1.out"
    awk -v w="$workload" '$1 == w && $2 == "host_cpu_s" { c = $3 }
        $1 == w && $2 == "host_wall_s" { s = $3 }
        $1 == w && $2 == "host_peak_rss_mib" { m = $3 }
        END { if (c == "" || s == "" || m == "") exit 1; print c, s, m }' \
        "$tmp/$1.out" >>"$tmp/$1.txt"
}
sim_cells() { # <side>: "metric value" of every simulated end-to-end cell
    awk -v w="$workload" '$1 == w && ($2 ~ /^sim_/ || $2 == "stored_per_logical" ||
        $2 == "ok_ops_share") { print $2, $3 }' "$tmp/$1.out"
}
same_sim() { # the pair's verdict on its simulated cells, one line
    paste -d' ' <(sim_cells parent) <(sim_cells change) | awk '
        $1 != $3 || $2 != $4 { printf "simulated cell %s differs: parent %s, change %s\n",
            $1 != "" ? $1 : $3, $2, $4; bad = 1; exit }
        { n++ }
        END { if (!bad) print n ? "simulated cells identical" : "no simulated cells found" }'
}
# One traced rep a side: the per-call allocation counters.
traced() { # <side>: "<metric> <value>" of each traced allocation counter
    "$tmp/$1-target/release/debar-benchmark" run --workload "$workload" \
        --seed "$seed" --reps 1 --trace --out "$tmp/$1-traced.json" >"$tmp/$1-traced.out"
    awk -v w="$workload" '$1 == w && $2 ~ /^core\.(cluster\.(backup_prepared|run_dedup2|restore_run|verify_run)|gc\.run_gc)\.(alloc|host_s)/ {
        print $2, $3 }' "$tmp/$1-traced.out"
}
for workload in ${workloads//,/ }; do
    rm -f "$tmp"/parent.txt "$tmp"/change.txt
    first_diff=""
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then run parent; run change; else run change; run parent; fi
        verdict=$(same_sim)
        if [ "$verdict" != "simulated cells identical" ] && [ -z "$first_diff" ]; then
            first_diff="pair $((i + 1)): $verdict"
        fi
        echo "pair $((i + 1))/$pairs: parent $(tail -n1 "$tmp/parent.txt")" \
            " change $(tail -n1 "$tmp/change.txt")  (cpu wall rss); $verdict" >&2
    done

    echo "$workload, seed $seed, $pairs pairs: $rev against the working tree"
    echo "${first_diff:-simulated cells identical on every pair}"
    paste -d' ' "$tmp/parent.txt" "$tmp/change.txt" | awk '
        # Quartile p of the sorted a[1..n], linear between order statistics.
        function q(a, n, p,    h, lo) {
            h = (n - 1) * p + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        { n++; pc[n] = $1; pw[n] = $2; pr[n] = $3; cc[n] = $4; cw[n] = $5; cr[n] = $6
          if ($4 < $1) wc++
          if ($5 < $2) ww++
          if ($6 < $3) wm++ }
        function report(name, p, c, won,    pm, cm) {
            sort(p, n); sort(c, n)
            pm = q(p, n, 0.5); cm = q(c, n, 0.5)
            printf "%-17s parent median %.3f (quartiles %.3f-%.3f)\n", name, pm, q(p, n, 0.25), q(p, n, 0.75)
            printf "%-17s change median %.3f (quartiles %.3f-%.3f)\n", name, cm, q(c, n, 0.25), q(c, n, 0.75)
            printf "%-17s change %+.1f %%, won %d/%d pairs, median gap %.3f %s parent IQR %.3f\n",
                name, 100 * (cm - pm) / pm, won, n, pm - cm,
                (pm - cm > q(p, n, 0.75) - q(p, n, 0.25)) ? ">" : "<=", q(p, n, 0.75) - q(p, n, 0.25)
        }
        END { report("host_cpu_s", pc, cc, wc + 0); report("host_wall_s", pw, cw, ww + 0)
              report("host_peak_rss_mib", pr, cr, wm + 0) }'

    traced parent >"$tmp/parent.allocs"
    traced change >"$tmp/change.allocs"
    echo "traced allocations and host time, one --reps 1 --trace run a side:"
    paste -d' ' "$tmp/parent.allocs" "$tmp/change.allocs" | awk '
        { printf "%-40s parent %12.3f  change %12.3f  %+6.1f %%\n", $1, $2, $4,
            $2 ? 100 * ($4 - $2) / $2 : 0 }'
done
