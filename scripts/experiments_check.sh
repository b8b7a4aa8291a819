#!/bin/sh
# Checks EXPERIMENTS.md against freshly generated paper-scale results:
# regenerates table2 and fig3 with amjs-experiments -scale paper into a
# temporary directory (about 40 s on 2 vCPUs) and fails when a number
# in the document differs from its CSV. Checked:
#   - every cell of the Fig 3 (a), (b) and (c) tables;
#   - the avg wait, unfair # and LoC columns of both Table II tables
#     (the primary month and the heavier second workload).
# Left out: Table III and every other wall-time table (they measure the
# machine, not the schedule), the heavy table's rounded max-wait column,
# the baseline context rows and the prose. Shape claims quoting these
# numbers must be updated by hand when a table changes.
#
# Usage: scripts/experiments_check.sh
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/amjs-experiments" ./cmd/amjs-experiments
"$tmp/amjs-experiments" -scale paper -q -outdir "$tmp/res" table2 fig3 >/dev/null

# doc_table HEADING NCOLS prints the first NCOLS cells of each data row
# of the first Markdown table after the line HEADING, comma-separated.
# A cell keeps its text up to any parenthetical, without bold markers:
# "**935 (0.98×)**" reads 935, "BF=1/W=1 (base)" reads BF=1/W=1.
doc_table() {
	awk -v head="$1" -v ncols="$2" '
		$0 == head { found = 1; next }
		found && /^\|/ { intable = 1
			if (++row <= 2) next # header and separator
			n = split($0, cell, "|"); out = ""
			for (i = 2; i <= ncols + 1 && i < n; i++) {
				c = cell[i]; gsub(/\*\*/, "", c); sub(/\(.*/, "", c)
				gsub(/^ +| +$/, "", c)
				out = out (i > 2 ? "," : "") c
			}
			print out; next }
		intable { exit }
	' EXPERIMENTS.md
}

fail=0
# compare NAME DOC_ROWS CSV_ROWS
compare() {
	printf '%s\n' "$2" >"$tmp/doc"
	printf '%s\n' "$3" >"$tmp/csv"
	if [ "$(wc -l <"$tmp/doc")" -lt 2 ]; then
		echo "experiments-check: $1: table not found in EXPERIMENTS.md"
		fail=1
	elif ! diff -u --label "EXPERIMENTS.md $1" --label "regenerated $1" "$tmp/doc" "$tmp/csv"; then
		fail=1
	fi
}

compare "Fig 3(a)" "$(doc_table '### (a) average waiting time (min)' 6)" "$(tail -n +2 "$tmp/res/fig3a_wait.csv")"
compare "Fig 3(b)" "$(doc_table '### (b) number of unfair jobs' 6)" "$(tail -n +2 "$tmp/res/fig3b_unfair.csv")"
compare "Fig 3(c)" "$(doc_table '### (c) loss of capacity (%)' 6)" "$(tail -n +2 "$tmp/res/fig3c_loc.csv")"
# Table II columns: configuration, avg wait, unfair #, LoC (CSV fields 1, 2, 4, 5).
compare "Table II" "$(doc_table '## Table II — overall improvement of adaptive tuning' 4)" \
	"$(tail -n +2 "$tmp/res/table2.csv" | cut -d, -f1,2,4,5)"
compare "Table II (heavy)" "$(doc_table '### The heavier second workload' 4)" \
	"$(tail -n +2 "$tmp/res/table2_heavy.csv" | cut -d, -f1,2,4,5)"

if [ "$fail" -ne 0 ]; then
	echo "experiments-check: EXPERIMENTS.md disagrees with the regenerated CSVs (- document, + CSV)"
	exit 1
fi
echo "experiments-check: Fig 3 (a)-(c) and Table II match the regenerated CSVs"
