#!/usr/bin/env bash
# Smoke test of an installed `msot` entry point: every subcommand runs on
# tiny CSV files, the JSON of `dist`, `matrix`, `gw` and `pca` is laid out
# as `json.dumps(payload, sort_keys=True, indent=2)`, and bad input exits 2
# naming the file or the flag.
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

same_layout() {  # same_layout COMMAND...: stdout is json.dumps(..., sort_keys=True, indent=2)
    "$@" > out.json
    cat out.json
    python -c 'import json
text = open("out.json").read()
assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"'
}

printf 'x0,x1\n0.1,0.2\n-0.3,0.4\n' > ok.csv
printf 'x0,x1\n0.1,0.2\n0.6,0.8\n' > ball.csv
printf 'x0,x1,x2\n1,0,0\n0,1,0\n0,0,1\n0.6,0.8,0\n' > sphere.csv
printf 'x0,x1,x2\n0,0,1\n0,-0.6,0.8\n-1,0,0\n' > sphere2.csv
printf 'x0\n0.3\n-1.2\n0.8\n' > line.csv
printf 'mean,sigma\n0.1,1.0\n0.4,1.5\n-0.2,0.7\n' > gauss.csv
printf 'dim,m0,m1,m2,m3\n2,2,0.5,0.5,1\n2,1,0,0,3\n2,1.5,-0.2,-0.2,0.8\n' > spd.csv
printf 'dim,m0,m1,m2,m3\n2,1,0.1,0.1,1\n2,0.7,0.3,0.3,2\n' > spd2.csv
printf 'dim,m0,m1,m2,m3\n2,1,0.1,0.1,1\n2,2,0.3,0.3,2\n2,1,2,2,1\n' > spd_bad.csv

msot dist sw ok.csv ok.csv --projections 8
expect_two "row 3" msot dist ghsw ball.csv ball.csv --geometry poincare
expect_two "missing.csv: cannot read file" msot dist sw missing.csv ok.csv
expect_two "cannot write file" msot dist sw ok.csv ok.csv --out .
# a %.17g file (the format of np.savetxt) and its CRLF copy read alike
python -c 'import numpy as np
rng = np.random.default_rng(0)
for name in ("a17", "b17"):
    np.savetxt(name + ".csv", rng.normal(size=(300, 3)), delimiter=",",
               header="x0,x1,x2", comments="", fmt="%.17g")'
sed 's/$/\r/' a17.csv > a17crlf.csv
lf=$(msot dist sw a17.csv b17.csv --projections 16 | grep '"value"')
crlf=$(msot dist sw a17crlf.csv b17.csv --projections 16 | grep '"value"')
echo "$lf"
test "$lf" = "$crlf"
same_layout msot dist usw ok.csv ball.csv --projections 4 --fw-iters 3
msot dist ssw sphere.csv sphere2.csv --geometry sphere --projections 16
msot dist spdsw spd.csv spd2.csv --geometry spd --projections 8
same_layout msot dist hspdsw spd.csv spd2.csv --geometry spd --projections 8
expect_two "spd_bad.csv: row 4: matrix not positive definite" msot dist hspdsw spd.csv spd_bad.csv --geometry spd
same_layout msot matrix sw ok.csv ok.csv ball.csv --projections 8
expect_two "n_projections must be positive" msot matrix sw ok.csv --projections 0
same_layout msot gw gw1d line.csv line.csv
same_layout msot gw hw line.csv line.csv
same_layout msot gw hw ok.csv ok.csv
same_layout msot pca gauss.csv
msot pca gauss.csv --origin -0.5,1 > /dev/null
expect_two "--origin must be" msot pca gauss.csv --origin 0
msot flow euler ok.csv --steps 2 > /dev/null
expect_two "0 < b < a" msot flow euler ok.csv --kernel-b 0
msot flow euler ok.csv --functional potential --potential-center -1,0 --steps 2 > /dev/null
