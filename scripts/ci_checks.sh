#!/usr/bin/env bash
# The checks the pytest suite cannot make, run alike in CI and by hand:
#
#     bash scripts/ci_checks.sh
#
# from the root of a checkout, with numpy importable; nothing needs
# installing, since every command runs as `python -m poppersim` on the
# source tree.  Each command is a fresh process, so the checks cover what
# one process cannot see: reports byte-identical from process to process
# and across OpenBLAS thread counts, the 130- to 1024-step sweeps, the
# memory cap's refusals at the modelled peak, and the benchmark's own
# correctness runs.  A failure names the check it happened in.
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

check "fresh-process byte identity of the fixtures' reports and sweeps"
# the modelled peak memory of the 256-step strekalov.json sweep's
# one pass (grid_oracle.peak_bytes on its n=4096 grid)
sweep256_bytes=$(python -c 'import sys; from poppersim import experiments as ex, grid_oracle as go; s = ex.Scenario.from_json(sys.argv[1]); print(go.peak_bytes(s.a, s.omega, ex.oracle_grid(s), 256))' \
  src/poppersim/scenarios/strekalov.json)
# reports are byte-identical from run to run, and the sweeps write
# nothing to stderr: no flagged point and no numpy warning from the
# batched normalization of their conditionals
for run in 1 2; do
  poppersim run src/poppersim/scenarios/strekalov.json --oracle \
    > "$tmp/run_$run.json"
  poppersim sweep src/poppersim/scenarios/strekalov.json \
    --from 0.2 --to 1.0 --steps 5 --oracle > "$tmp/sweep_$run.csv" \
    2> "$tmp/sweep_$run.err"
  test ! -s "$tmp/sweep_$run.err"
  # 130 slits, more than two 64-slit slices, in the sweep's one pass
  poppersim sweep src/poppersim/scenarios/strekalov.json \
    --from 0.2 --to 1.0 --steps 130 --oracle \
    > "$tmp/sweep130_$run.csv" 2> "$tmp/sweep130_$run.err"
  test ! -s "$tmp/sweep130_$run.err"
  # 256 slits on n=4096 under a cap equal to the model of their
  # pass
  POPPER_SIM_MAX_GRID=$sweep256_bytes poppersim sweep \
    src/poppersim/scenarios/strekalov.json --from 0.2 --to 1.0 \
    --steps 256 --oracle > "$tmp/sweep256_$run.csv" \
    2> "$tmp/sweep256_$run.err"
  test ! -s "$tmp/sweep256_$run.err"
  # 1024 slits, where reading each row's width from the pass's
  # intensity block dominates the sweep after its flights
  poppersim sweep src/poppersim/scenarios/strekalov.json \
    --from 0.2 --to 1.0 --steps 1024 --oracle \
    > "$tmp/sweep1024_$run.csv" 2> "$tmp/sweep1024_$run.err"
  test ! -s "$tmp/sweep1024_$run.err"
  poppersim run src/poppersim/scenarios/kim_shih.json --oracle \
    > "$tmp/kim_shih_run_$run.json"
  poppersim oracle-check src/poppersim/scenarios/kim_shih.json \
    > "$tmp/kim_shih_check_$run.json"
  # on n=16384 D + 1 = 500, so the flights fold many chunks of
  # rows; the norm-drift gate holds the folded intensity to the
  # norm the walk sums
  poppersim oracle-check src/poppersim/scenarios/kim_shih.json \
    --grid-n 16384 > "$tmp/kim_shih_check16384_$run.json"
  # its beam delta_rel (~1e-8, 9 digits) shows any regrouping of
  # the flights' sums
  poppersim run src/poppersim/scenarios/popper_freespace.json --oracle \
    > "$tmp/freespace_run_$run.json"
done
cmp "$tmp/run_1.json" "$tmp/run_2.json"
cmp "$tmp/sweep_1.csv" "$tmp/sweep_2.csv"
cmp "$tmp/sweep130_1.csv" "$tmp/sweep130_2.csv"
# every one of the 130 rows has an oracle width
test "$(awk -F, 'NR > 1 && $3 != ""' "$tmp/sweep130_1.csv" | wc -l)" -eq 130
cmp "$tmp/sweep256_1.csv" "$tmp/sweep256_2.csv"
test "$(awk -F, 'NR > 1 && $3 != ""' "$tmp/sweep256_1.csv" | wc -l)" -eq 256
cmp "$tmp/sweep1024_1.csv" "$tmp/sweep1024_2.csv"
test "$(awk -F, 'NR > 1 && $3 != ""' "$tmp/sweep1024_1.csv" | wc -l)" -eq 1024
cmp "$tmp/kim_shih_run_1.json" "$tmp/kim_shih_run_2.json"
cmp "$tmp/kim_shih_check_1.json" "$tmp/kim_shih_check_2.json"
cmp "$tmp/kim_shih_check16384_1.json" \
  "$tmp/kim_shih_check16384_2.json"
cmp "$tmp/freespace_run_1.json" "$tmp/freespace_run_2.json"
cat "$tmp/sweep_1.csv"

check "256-step sweep refused one byte under its modelled peak"
# one byte under the model refuses the sweep: exit 2, one line
code=0
POPPER_SIM_MAX_GRID=$((sweep256_bytes - 1)) poppersim sweep \
  src/poppersim/scenarios/strekalov.json --from 0.2 --to 1.0 \
  --steps 256 --oracle > "$tmp/sweep256_refused.csv" \
  2> "$tmp/sweep256_refused.err" || code=$?
test "$code" -eq 2
test ! -s "$tmp/sweep256_refused.csv"
test "$(wc -l < "$tmp/sweep256_refused.err")" -eq 1

check "reports identical on 1 and 2 OpenBLAS threads"
# reports do not depend on the BLAS thread count: the fixtures'
# oracle runs and the 256-step sweep are byte-identical on one
# OpenBLAS thread and on two
for threads in 1 2; do
  for fixture in kim_shih popper_freespace strekalov; do
    OPENBLAS_NUM_THREADS=$threads poppersim run \
      src/poppersim/scenarios/$fixture.json --oracle \
      > "$tmp/${fixture}_blas$threads.json"
  done
  OPENBLAS_NUM_THREADS=$threads poppersim sweep \
    src/poppersim/scenarios/strekalov.json --from 0.2 --to 1.0 \
    --steps 256 --oracle > "$tmp/sweep256_blas$threads.csv"
done
for fixture in kim_shih popper_freespace strekalov; do
  cmp "$tmp/${fixture}_blas1.json" \
    "$tmp/${fixture}_blas2.json"
done
cmp "$tmp/sweep256_blas1.csv" "$tmp/sweep256_blas2.csv"

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

check "block-less strekalov.json on its auto-sized n=8192 grid"
# without its oracle block strekalov runs on n=8192, where
# particle 2's marginals fly from rho's diagonals (D + 1 = 41),
# folded from the diagonals 0 and 1 that the source walk sums.  It
# is the largest grid here flown through rho, and its oracle check
# exits 0: its norm-drift gate holds the intensity flown from those
# diagonals to the norm the walk's diagonal 0 sums
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d.pop("oracle"); json.dump(d, open(sys.argv[2], "w"))' \
  src/poppersim/scenarios/strekalov.json "$tmp/strekalov_auto.json"
poppersim run "$tmp/strekalov_auto.json" --oracle > /dev/null
poppersim oracle-check "$tmp/strekalov_auto.json" > /dev/null

check "block-less narrow Gaussian slit runs on its auto-sized grid"
# without an oracle block the grid is sized for a narrow Gaussian
# slit too (n=8192 here), so the run is not refused
printf '%s\n' '{"a_mm": 0.2, "omega_mm": 4, "slit": {"kind": "gaussian", "width_mm": 0.01}, "L1_mm": 500, "L2_mm": 500, "lambda_nm": 702}' \
  > "$tmp/narrow_slit.json"
poppersim run "$tmp/narrow_slit.json" --oracle > /dev/null

check "wide, edge-crossing and clipped bands: byte identity and oracle check"
# a block-less scenario whose band is wide (D + 1 = 0.43 n on
# n=2048) flies rho's diagonals like every other: its report is
# byte-identical from run to run and its oracle check passes
printf '%s\n' '{"a_mm": 0.3, "omega_mm": 1, "slit": {"kind": "gaussian", "width_mm": 0.1}, "L1_mm": 100, "L2_mm": 100, "lambda_nm": 702}' \
  > "$tmp/wide_band.json"
# on this grid (D + 1 = 0.58 n) column 0, the grid's self-mirrored
# edge that the source samples as 0.0, lies inside the band
printf '%s\n' '{"a_mm": 0.3, "omega_mm": 1, "slit": {"kind": "gaussian", "width_mm": 0.1}, "L1_mm": 100, "L2_mm": 100, "lambda_nm": 702, "oracle": {"n": 512, "extent_mm": 3.04}}' \
  > "$tmp/edge.json"
# on this grid every diagonal of rho is kept (D + 1 = n = 512, the
# count clipped at n)
printf '%s\n' '{"a_mm": 1.0, "omega_mm": 0.3, "slit": {"kind": "gaussian", "width_mm": 0.3}, "L1_mm": 5, "L2_mm": 5, "lambda_nm": 702, "oracle": {"n": 512, "extent_mm": 2.5}}' \
  > "$tmp/clipped.json"
for layout in wide_band edge clipped; do
  for run in 1 2; do
    poppersim run "$tmp/$layout.json" --oracle \
      > "$tmp/${layout}_$run.json"
  done
  cmp "$tmp/${layout}_1.json" "$tmp/${layout}_2.json"
  poppersim oracle-check "$tmp/$layout.json" > /dev/null
done

check "grid past the machine's physical memory exits 2"
# a grid past the machine's physical memory exits 2
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["oracle"]["n"] = 2 ** 60; json.dump(d, open(sys.argv[2], "w"))' \
  "$tmp/edge.json" "$tmp/huge_grid.json"
code=0
poppersim run "$tmp/huge_grid.json" --oracle > /dev/null || code=$?
test "$code" -eq 2

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
