#!/usr/bin/env bash
# Non-test Go lines per top-level package — the number ROADMAP asks every
# simplicity PR to report. bench/ is the frozen benchmark harness and
# .bench_build/ its build cache; neither counts. Run from anywhere:
#   scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		n = split($2, p, "/")
		# ./internal/serve/x.go -> internal/serve; ./cmd/fedsim/main.go -> cmd; ./doc.go -> .
		pkg = n <= 2 ? "." : (p[2] == "internal" ? p[2] "/" p[3] : p[2])
		lines[pkg] += $1; total += $1
	}
	END {
		for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
