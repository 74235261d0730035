#!/usr/bin/env bash
# The checks the pytest suite cannot make, run alike in CI and by hand:
#
#     bash scripts/ci_checks.sh
#
# from the root of a checkout, with numpy importable; nothing needs
# installing, since every command runs as `python -m poppersim` on the
# source tree.  Each command is a fresh process, so the checks cover what
# one process cannot see: the held reports of scripts/report_digests.py
# byte-identical from process to process and across OpenBLAS thread
# counts, the memory cap's admissions and refusals at the modelled peak,
# and the benchmark's own correctness runs.  A failure names the check it
# happened in.
set -euo pipefail

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tmp=$(mktemp -d)
current="set-up"

finish() {
  local status=$?
  rm -rf "$tmp"
  if [ "$status" -ne 0 ]; then
    echo "ci_checks: FAILED: $current (exit $status)" >&2
  fi
}
trap finish EXIT

check() {
  current=$1
  echo "== $current"
}

poppersim() {
  python -m poppersim "$@"
}

check "held reports identical from process to process on 1 and 2 OpenBLAS threads"
# every command of report_digests.py's held list runs in a fresh process
# on one OpenBLAS thread, then again on two: each ends with its expected
# exit code, else the script exits 1, and prints the same bytes
for threads in 1 2; do
  OPENBLAS_NUM_THREADS=$threads python scripts/report_digests.py \
    > "$tmp/digests_$threads.txt"
done
cmp "$tmp/digests_1.txt" "$tmp/digests_2.txt"
cat "$tmp/digests_1.txt"

check "256-step sweep at its modelled peak, and refused one byte under it"
# the modelled peak memory of the 256-step strekalov.json sweep's one
# pass (grid_oracle.peak_bytes on its n=4096 grid)
sweep256_bytes=$(python -c 'import sys; from poppersim import experiments as ex, grid_oracle as go; s = ex.Scenario.from_json(sys.argv[1]); print(go.peak_bytes(s.a, s.omega, ex.oracle_grid(s), 256))' \
  src/poppersim/scenarios/strekalov.json)
# 256 slits on n=4096 run under a cap equal to the model of their pass:
# nothing on stderr, and every row has an oracle width
POPPER_SIM_MAX_GRID=$sweep256_bytes poppersim sweep \
  src/poppersim/scenarios/strekalov.json --from 0.2 --to 1.0 \
  --steps 256 --oracle > "$tmp/sweep256.csv" 2> "$tmp/sweep256.err"
test ! -s "$tmp/sweep256.err"
test "$(awk -F, 'NR > 1 && $3 != ""' "$tmp/sweep256.csv" | wc -l)" -eq 256
# one byte under the model refuses the sweep: exit 2, one line
code=0
POPPER_SIM_MAX_GRID=$((sweep256_bytes - 1)) poppersim sweep \
  src/poppersim/scenarios/strekalov.json --from 0.2 --to 1.0 \
  --steps 256 --oracle > "$tmp/sweep256_refused.csv" \
  2> "$tmp/sweep256_refused.err" || code=$?
test "$code" -eq 2
test ! -s "$tmp/sweep256_refused.csv"
test "$(wc -l < "$tmp/sweep256_refused.err")" -eq 1

check "sweep over 4 slits flags only its unresolved point at its modelled peak"
# the sweep's pass counts every slit it holds, an unresolved one
# too: on this n=1024 grid the 0.02 mm slit (epsilon 0.01 mm) is
# unresolved, and its point alone is flagged under a cap equal to
# the model of the pass over all 4 slits
printf '%s\n' '{"a_mm": 0.2, "omega_mm": 4, "slit": {"kind": "gaussian", "width_mm": 0.25}, "L1_mm": 500, "L2_mm": 500, "lambda_nm": 702, "oracle": {"n": 1024, "extent_mm": 16}}' \
  > "$tmp/cap_slits.json"
cap4_bytes=$(python -c 'import sys; from poppersim import experiments as ex, grid_oracle as go; s = ex.Scenario.from_json(sys.argv[1]); print(go.peak_bytes(s.a, s.omega, ex.oracle_grid(s), 4))' \
  "$tmp/cap_slits.json")
POPPER_SIM_MAX_GRID=$cap4_bytes poppersim sweep "$tmp/cap_slits.json" \
  --from 0.02 --to 0.6 --steps 4 --oracle > "$tmp/cap_slits.csv" \
  2> "$tmp/cap_slits.err"
test "$(awk -F, 'NR > 1 && $3 == "" {print $1}' "$tmp/cap_slits.csv")" = "0.02"
grep -qx "1 sweep point(s) flagged; see report" "$tmp/cap_slits.err"
# one byte under it the sweep is refused: exit 2, one line, no CSV
code=0
POPPER_SIM_MAX_GRID=$((cap4_bytes - 1)) poppersim sweep "$tmp/cap_slits.json" \
  --from 0.02 --to 0.6 --steps 4 --oracle > "$tmp/cap_slits_refused.csv" \
  2> "$tmp/cap_slits_refused.err" || code=$?
test "$code" -eq 2
test ! -s "$tmp/cap_slits_refused.csv"
test "$(wc -l < "$tmp/cap_slits_refused.err")" -eq 1

# the benchmark's workloads check what they run: layout_scan every
# oracle width of its random free-space layouts against the closed
# forms, fixture_runs each bundled fixture's `run --oracle` against
# Kim & Shih's published widths on both arms, and strekalov_sweep the
# 5-point oracle sweep against the far-field law, the widths' strict
# decrease and a 0.2/1.0 mm ratio above 3.  Each run's last line must
# report correct outputs and no failed operation.  A run's stderr, its
# op timings among it, is printed only if the run or its check fails
for workload in layout_scan fixture_runs strekalov_sweep; do
  check "perfbench $workload correctness run"
  code=0
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 \
      2> "$tmp/$workload.err" | tail -n 1 > "$tmp/$workload.json" \
    && cat "$tmp/$workload.json" \
    && python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
      "$tmp/$workload.json" \
    || code=$?
  if [ "$code" -ne 0 ]; then
    cat "$tmp/$workload.err" >&2
    exit "$code"
  fi
done
echo "ci_checks: all checks passed"
