#!/usr/bin/env bash
# Paper-bench parity across the distance-kernel paths (CI: make paper-parity):
#
#   1. run every paper bench (Table|Figure|Ablation|Lemma) once under the
#      default kernel dispatch and once under VECTOR_KERNELS=scalar
#   2. keep each sub-benchmark's quality columns only: F1, pair-F1,
#      selected-attrs and matched (timings differ run to run)
#   3. diff the two and exit non-zero on any difference
#
# On a CPU without AVX2+FMA the default dispatch is already scalar, so both
# runs take the same path and this passes trivially.
# Env override: GO. Run from the repository root.
set -euo pipefail

GO="${GO:-go}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

quality() {
	"$GO" test -short -run '^$' -bench 'Table|Figure|Ablation|Lemma' -benchtime=1x . |
		awk '/^Benchmark/ {
			line = $1
			for (i = 2; i < NF; i++)
				if ($(i+1) ~ /^(F1|pair-F1|selected-attrs|matched)$/)
					line = line " " $(i+1) "=" $i
			print line
		}' | sort
}

quality >"$WORK/default"
VECTOR_KERNELS=scalar quality >"$WORK/scalar"
if ! diff -u "$WORK/default" "$WORK/scalar"; then
	echo "paper-parity: quality columns differ between the default and the scalar kernels" >&2
	exit 1
fi
echo "paper-parity: $(wc -l <"$WORK/default") sub-benchmarks, $(grep -c = "$WORK/default") with quality columns, identical on both kernel paths"
