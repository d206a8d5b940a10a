#!/usr/bin/env bash
# End-to-end smoke test of the installed `lrsetd` console script: every
# subcommand on tiny inputs, metrics at extreme scales, a fourth-order
# tensor, and rejected configs. Runs in a fresh temporary directory.
# Every check reads a file, never the far end of a pipe, so under pipefail
# no step depends on which end of a pipe exits first.
#
#   bash .github/smoke.sh
set -euo pipefail

cd "$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/lrsetd-smoke.XXXXXX")"

# exits nonzero unless the first row of the sweep CSV $1 is tn = 0 with an
# SNR in the open interval ($2, $3) dB
tn0_snr_within() {
  python -c "
import csv, sys
row = next(csv.DictReader(open(sys.argv[1])))
if float(row['tn']) != 0 or not float(sys.argv[2]) < float(row['snr']) < float(sys.argv[3]):
    sys.exit(f'{sys.argv[1]}: first row {row} is not tn = 0 within ({sys.argv[2]}, {sys.argv[3]}) dB')
" "$@"
}

echo "hosvd-demo"
# at full rank the reconstruction is exact to rounding, far above 100 dB:
# one chain of last-axis products, of order 3 and of order 4; ranks below
# full compress with first-axis products, and random data then loses
# energy, so its SNR is positive but far below that
python -c "import numpy as np; from lrsetd.io import write_image; write_image('tiny.ppm', np.random.default_rng(0).uniform(0, 255, (8, 6, 3)))"
lrsetd hosvd-demo --input tiny.ppm --scale 255 --tn-grid 0,0.05 --images-out tiny > sweep.csv
head -n 1 sweep.csv > sweep_head.csv
grep -qx 'tn,sparsity,snr' sweep_head.csv
test "$(wc -l < sweep.csv)" -eq 3
tn0_snr_within sweep.csv 100 inf
test -s tiny_tn0.05.ppm
lrsetd hosvd-demo --input tiny.ppm --scale 255 --ranks 4,3,2 --tn-grid 0,0.05 > sweep_low.csv
test "$(wc -l < sweep_low.csv)" -eq 3
tn0_snr_within sweep_low.csv 0 100
python -c "import numpy as np; from lrsetd.io import write_tensor; write_tensor('noise4.lrt', np.random.default_rng(5).uniform(0, 1, (5, 4, 3, 2)))"
lrsetd hosvd-demo --input noise4.lrt --tn-grid 0 > sweep4.csv
tn0_snr_within sweep4.csv 100 inf
# a 128x96x3 image spans two axis-0 slabs (113 rows of 96x3 and 15), in
# truncate_core's pass over the full-rank core and in write_image's; the
# full-rank reconstruction writes the input's bytes back, and two runs
# write the same truncated image
python -c "import numpy as np; from lrsetd.io import write_image; write_image('wide.ppm', np.random.default_rng(6).uniform(0, 255, (128, 96, 3)))"
for run in a b; do
  lrsetd hosvd-demo --input wide.ppm --scale 255 --tn-grid 0,0.02 --images-out "wide_$run" > "wide_$run.csv"
done
cmp wide_a_tn0.ppm wide.ppm
cmp wide_a_tn0.02.ppm wide_b_tn0.02.ppm

echo "mask-gen, complete and metrics"
python -c "import numpy as np; from lrsetd.io import write_tensor; f = np.random.default_rng(0).uniform(1, 2, (3, 6)); write_tensor('tiny.lrt', 100 * np.einsum('i,j,k->ijk', *f))"
lrsetd mask-gen --dims 6,6,6 --ratio 0.6 --seed 1 --out tiny.lrm
for run in a b; do
  lrsetd complete --input tiny.lrt --mask tiny.lrm --preset traffic-wholeday --ranks 2,2,2 --max-iter 20 --deterministic-report --report "report_$run.json" --out "recovered_$run.lrt" > /dev/null
done
cmp report_a.json report_b.json
lrsetd metrics --truth tiny.lrt --recovered recovered_a.lrt --mask tiny.lrm > metrics_a.json
grep -q '"rse"' metrics_a.json
# the trace rows carry exactly the fields of IterationRecord, and the final
# Lagrangian and objective sit at the top level as finite numbers
python -c "
import dataclasses, json, math, sys
from lrsetd.solver import IterationRecord
doc = json.load(open('report_a.json'))
names = {f.name for f in dataclasses.fields(IterationRecord)}
if not doc['trace'] or any(set(row) != names for row in doc['trace']):
    sys.exit(f'trace rows are not IterationRecord: {doc[\"trace\"][:1]}')
if not all(math.isfinite(doc[key]) for key in ('lagrangian', 'objective')):
    sys.exit('final lagrangian or objective is not finite')
"
# composite mask: slice 3 of mode 2 dropped, round(0.5 * 180) of the rest
# kept, a count that does not depend on the random stream
lrsetd mask-gen --dims 6,6,6 --missing-spec '{"kind": "composite", "mode": 2, "params": {"structural": {"kind": "whole_slices", "params": {"slices": [3]}}, "ratio": 0.5}, "seed": 4}' --out composite.lrm > composite.json
grep -q '"observed": 90}' composite.json
lrsetd complete --input tiny.lrt --mask composite.lrm --preset traffic-wholeday --ranks 2,2,2 --max-iter 20 --out composite.lrt > /dev/null
lrsetd metrics --truth tiny.lrt --recovered composite.lrt --mask composite.lrm > metrics_composite.json
grep -q '"rse"' metrics_composite.json

echo "residual balancing"
# a smoothed run changes beta at least once, and only after one of the
# first _BALANCE_ITERS iterations; the config echo keeps the start beta,
# the one the first iteration ran with, while later rows carry the beta in
# force
lrsetd complete --input tiny.lrt --mask tiny.lrm --preset traffic-wholeday --ranks 2,2,2 --max-iter 80 --deterministic-report --report balance.json > /dev/null
python -c "
import json, sys
from lrsetd.solver import _BALANCE_ITERS
doc = json.load(open('balance.json'))
betas = [r['beta'] for r in doc['trace']]
after = [k for k in range(1, len(betas)) if betas[k] != betas[k - 1]]
if not after or any(k > _BALANCE_ITERS for k in after):
    sys.exit(f'beta {betas} changed after iterations {after}')
if doc['config']['beta'] != betas[0]:
    sys.exit(f'config beta {doc[\"config\"][\"beta\"]} is not the first row beta {betas[0]}')
if all(beta == betas[0] for beta in betas[1:]):
    sys.exit(f'no later row moved beta from {betas[0]}')
"

echo "library step"
# init_state and three calls of step, with residual balancing between them
# through set_beta as a solve does, give iterations 1, 2 and 3, equal but
# for their wall time to the rows of a solve at max_iter 3
python -c "
import sys
from dataclasses import replace
from lrsetd.io import read_mask, read_tensor
from lrsetd.solver import _balanced, init_state, preset_config, set_beta, solve, step
m, mask = read_tensor('tiny.lrt'), read_mask('tiny.lrm')
cfg = preset_config('traffic-wholeday', ranks=(2, 2, 2), max_iter=3)
state, records = init_state(m, mask, cfg), []
for k in (1, 2, 3):
    records.append(step(state, cfg))
    if k < 3:
        set_beta(state, cfg, _balanced(state.beta, records[-1]))
if [r.iteration for r in records] != [1, 2, 3]:
    sys.exit(f'step records are iterations {[r.iteration for r in records]}')
rows = [replace(r, seconds=0.0) for r in solve(m, mask, cfg).trace]
if [replace(r, seconds=0.0) for r in records] != rows:
    sys.exit(f'step records {records} are not the solve rows {rows}')
if len({r.beta for r in records}) == 1:
    sys.exit(f'set_beta moved no beta: {records}')
"

echo "traffic CSV"
# a spreadsheet export: a byte-order mark and a blank line, both skipped;
# 4 pairs by 3 days of 6 intervals
python -c "
import numpy as np
rows = np.random.default_rng(2).uniform(1, 9, (4, 18))
text = '\n'.join(','.join(repr(v) for v in row) for row in rows.tolist())
open('traffic.csv', 'wb').write(b'\xef\xbb\xbf\n' + text.encode() + b'\n')
"
lrsetd complete --input traffic.csv --tensorize otd:4,6,3 --sample-ratio 0.6 --seed 1 --ranks 2,2,2 --max-iter 20 --out traffic_csv.lrt > /dev/null
test -s traffic_csv.lrt
# a Latin-1 byte is an I/O error (exit 3) on one line naming the file
printf '1,2\n3,\xe9\n' > latin1.csv
status=0
lrsetd complete --input latin1.csv --tensorize otd:2,1,2 --sample-ratio 0.5 2> latin1.err > /dev/null || status=$?
test "$status" -eq 3
test "$(wc -l < latin1.err)" -eq 1
grep -q '^error: latin1\.csv: not UTF-8 text' latin1.err

echo "inline missing spec that is not an object"
# inline JSON that is not an object is a bad spec (exit 2), not a path to
# a missing file (exit 3)
status=0
lrsetd complete --input tiny.lrt --missing-spec null 2> spec_null.err > /dev/null || status=$?
test "$status" -eq 2
test "$(wc -l < spec_null.err)" -eq 1
grep -q '^error: missing spec must be a JSON object, got None$' spec_null.err

echo "traffic-shaped W solves"
# the traffic-wholeday preset smooths modes 1 and 2: the last axis (7) is
# solved as one matrix product by its inverse, the middle one (40, longer
# than the 32 that a product takes) swept in a copy swapped into lines;
# both runs must agree byte for byte
python -c "import numpy as np; from lrsetd.io import write_tensor; f = np.random.default_rng(1).uniform(1, 2, 51); write_tensor('traffic.lrt', 100 * np.einsum('i,j,k->ijk', f[:4], f[4:44], f[44:]))"
lrsetd mask-gen --dims 4,40,7 --ratio 0.6 --seed 2 --out traffic.lrm
for run in a b; do
  lrsetd complete --input traffic.lrt --mask traffic.lrm --preset traffic-wholeday --ranks 2,3,2 --max-iter 20 --deterministic-report --report "traffic_$run.json" --out "traffic_$run.lrt" > /dev/null
done
cmp traffic_a.json traffic_b.json
cmp traffic_a.lrt traffic_b.lrt

echo "every axis short"
# the image preset smooths modes 0 and 1: the first axis (6) is one matrix
# product by its inverse and the middle one (10) one batched product over
# its six 10x12 blocks, and every middle-mode product is batched; both
# runs must agree byte for byte
python -c "import numpy as np; from lrsetd.io import write_tensor; f = np.random.default_rng(3).uniform(1, 2, 28); write_tensor('short.lrt', 100 * np.einsum('i,j,k->ijk', f[:6], f[6:16], f[16:]))"
lrsetd mask-gen --dims 6,10,12 --ratio 0.6 --seed 2 --out short.lrm
for run in a b; do
  lrsetd complete --input short.lrt --mask short.lrm --preset image --ranks 2,2,2 --max-iter 20 --deterministic-report --report "short_$run.json" --out "short_$run.lrt" > /dev/null
done
cmp short_a.json short_b.json
cmp short_a.lrt short_b.lrt

echo "a rank equal to its mode length"
# image-shaped with r_2 = I_2 = 3: every step of the factor sweep takes
# its right side from the core's side, and step 0 multiplies Z by the
# core's chain with no product of Z; both runs must agree byte for byte
python -c "import numpy as np; from lrsetd.io import write_tensor; f = np.random.default_rng(4).uniform(1, 2, 27); write_tensor('rankfull.lrt', 100 * np.einsum('i,j,k->ijk', f[:12], f[12:24], f[24:]))"
lrsetd mask-gen --dims 12,12,3 --ratio 0.6 --seed 3 --out rankfull.lrm
for run in a b; do
  lrsetd complete --input rankfull.lrt --mask rankfull.lrm --preset image --ranks 4,4,3 --max-iter 20 --deterministic-report --report "rankfull_$run.json" --out "rankfull_$run.lrt" > /dev/null
done
cmp rankfull_a.json rankfull_b.json
cmp rankfull_a.lrt rankfull_b.lrt

echo "config files that set removed fields"
# every smoothed mode uses the difference matrix, every run stops on the
# relative change over max(||Z||, 1) and every solve starts from one fixed
# draw; the former switches are unknown fields: exit 2 and one error line
# naming each
echo '{"toeplitz_modes": [1, 0, 1]}' > toeplitz_modes.json
echo '{"stop_denominator": "blind"}' > stop_denominator.json
echo '{"init": "hosvd"}' > init.json
echo '{"seed": 3}' > seed.json
for key in toeplitz_modes stop_denominator init seed; do
  status=0
  lrsetd complete --input tiny.lrt --mask tiny.lrm --config "$key.json" 2> "$key.err" > /dev/null || status=$?
  test "$status" -eq 2
  test "$(wc -l < "$key.err")" -eq 1
  grep -q "^error: unknown config fields: \['$key'\]$" "$key.err"
done

echo "removed --trace-csv flag"
# the --report JSON holds the trace: the former CSV writer is a usage error
# (exit 2) with one error line after the usage text
status=0
lrsetd complete --input tiny.lrt --mask tiny.lrm --trace-csv x 2> trace_csv.err > /dev/null || status=$?
test "$status" -eq 2
test "$(grep -c 'error' trace_csv.err)" -eq 1
grep -q '^lrsetd: error: unrecognized arguments: --trace-csv x$' trace_csv.err
test ! -e x

echo "mask dims past memory"
# 1e12 entries lie within the LRM1 element budget (2^40), but drawing them
# takes 9 bytes each: a config error (exit 2) on one line, raised before
# any array is allocated
status=0
lrsetd mask-gen --dims 100000,100000,100 --ratio 0.5 --out huge.lrm 2> huge.err > /dev/null || status=$?
test "$status" -eq 2
test "$(wc -l < huge.err)" -eq 1
grep -q '^error: dims (100000, 100000, 100) must each lie in ' huge.err
test ! -e huge.lrm

echo "header that declares more payload than the file holds"
# 2^18 x 2^18 doubles declared, 64 bytes present: an I/O error (exit 3) on
# one line, with no traceback
python -c "import numpy as np; open('oversized.lrt', 'wb').write(b'LRT1' + np.asarray([2, 2**18, 2**18], dtype='<u4').tobytes() + bytes(64))"
status=0
lrsetd metrics --truth oversized.lrt --recovered tiny.lrt --mask tiny.lrm 2> oversized.err > /dev/null || status=$?
test "$status" -eq 3
test "$(wc -l < oversized.err)" -eq 1
grep -q '^error: truncated file while reading payload$' oversized.err

echo "metrics at extreme scales"
# the sums of squared entries overflow at 1e200 and underflow at 1e-200;
# every figure must still be a number
lrsetd mask-gen --dims 6,5,4 --ratio 0.5 --seed 1 --out scale.lrm
for s in 1e200 1e-200; do
  python -c "import sys, numpy as np; from lrsetd.io import write_tensor; s = float(sys.argv[1]); rng = np.random.default_rng(0); t = rng.uniform(1, 2, (6, 5, 4)); write_tensor('t_' + sys.argv[1] + '.lrt', s * t); write_tensor('r_' + sys.argv[1] + '.lrt', s * t * (1 + 0.01 * rng.standard_normal(t.shape)))" "$s"
  lrsetd metrics --truth "t_$s.lrt" --recovered "r_$s.lrt" --mask scale.lrm > "metrics_$s.json"
  grep -Eq '"psnr": -?[0-9]' "metrics_$s.json"
  grep -Eq '"rse": [0-9]' "metrics_$s.json"
done

echo "fourth order"
python -c "import numpy as np; from lrsetd.io import write_tensor; f = np.random.default_rng(0).uniform(1, 2, 14); write_tensor('four.lrt', 100 * np.einsum('i,j,k,l->ijkl', f[:5], f[5:9], f[9:12], f[12:]))"
lrsetd mask-gen --dims 5,4,3,2 --ratio 0.6 --seed 1 --out four.lrm
echo '{"alpha": [0.25, 0.25, 0.25, 0.25], "omega": [0.0, 1.0, 1.0, 0.0]}' > four.json
for run in a b; do
  lrsetd complete --input four.lrt --mask four.lrm --config four.json --ranks 2,2,2,2 --max-iter 20 --deterministic-report --report "four_$run.json" > /dev/null
done
cmp four_a.json four_b.json
lrsetd hosvd-demo --input four.lrt --tn-grid 0,0.05 > four_sweep.csv
test "$(wc -l < four_sweep.csv)" -eq 3

echo "smoke test passed"
