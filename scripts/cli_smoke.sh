#!/usr/bin/env bash
# Smoke test of an installed `msot` entry point: every subcommand runs on
# tiny CSV files, and bad input exits 2 naming the file or the flag.
# Run it from a scratch directory (it writes its CSV files there):
#   bash scripts/cli_smoke.sh
set -euo pipefail

expect_two() {  # expect_two PATTERN COMMAND...: exit 2 with PATTERN on stderr
    local pattern=$1 code=0
    shift
    "$@" 2> err.txt || code=$?
    cat err.txt
    test "$code" -eq 2
    grep -q -- "$pattern" err.txt
}

printf 'x0,x1\n0.1,0.2\n-0.3,0.4\n' > ok.csv
printf 'x0,x1\n0.1,0.2\n0.6,0.8\n' > ball.csv
printf 'x0,x1,x2\n1,0,0\n0,1,0\n0,0,1\n0.6,0.8,0\n' > sphere.csv
printf 'x0,x1,x2\n0,0,1\n0,-0.6,0.8\n-1,0,0\n' > sphere2.csv
printf 'x0\n0.3\n-1.2\n0.8\n' > line.csv
printf 'mean,sigma\n0.1,1.0\n0.4,1.5\n-0.2,0.7\n' > gauss.csv

msot dist sw ok.csv ok.csv --projections 8
expect_two "row 3" msot dist ghsw ball.csv ball.csv --geometry poincare
expect_two "missing.csv: cannot read file" msot dist sw missing.csv ok.csv
msot dist ssw sphere.csv sphere2.csv --geometry sphere --projections 16
msot matrix sw ok.csv ok.csv ball.csv --projections 8
expect_two "n_projections must be positive" msot matrix sw ok.csv --projections 0
msot gw gw1d line.csv line.csv
msot gw hw line.csv line.csv
msot gw hw ok.csv ok.csv
msot pca gauss.csv
msot pca gauss.csv --origin -0.5,1 > /dev/null
expect_two "--origin must be" msot pca gauss.csv --origin 0
msot flow euler ok.csv --steps 2 > /dev/null
expect_two "0 < b < a" msot flow euler ok.csv --kernel-b 0
msot flow euler ok.csv --functional potential --potential-center -1,0 --steps 2 > /dev/null
