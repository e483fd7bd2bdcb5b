#!/usr/bin/env bash
# Run the CLI commands whose artifacts CI uploads and compares, each into
# its own directory under PREFIX.  Usage, from the repository root:
#
#     bash tools/ci_artifacts.sh PREFIX [NAME ...]
#
# Each NAME (all of them when none is given) writes to PREFIX/NAME.  The
# package is imported as python finds it, so with PYTHONPATH set to another
# commit's src the same commands run on that commit: this list is the one
# place their arguments are written.  Every named command runs even if one
# fails; the exit status is the last nonzero one, or 0.
set -u

if [ $# -lt 1 ]; then
  echo "usage: tools/ci_artifacts.sh PREFIX [NAME ...]" >&2
  exit 2
fi
prefix=$1
shift

declare -A args=(
  # the sine sweep over k = 20..160
  [sweep]="--mode sweep --k-list 20,40,80,160"
  # the snapshot path at k = 5 with the spectral oracle
  [solve]="--mode solve --oracle --k 5 --t 0.001,0.002,0.004"
  # k = 20 doubles the oracle to 2048 modes and halves its step once: the
  # one command that takes a second step-doubling round
  [solve-k20]="--mode solve --oracle --k 20 --t 0.001,0.003"
  # the exact solver against the Laplace asymptotics at k = 20
  [asym]="--mode asym --k 20"
  # the profile, energy-drop and bifurcation checks (exit 3 on a failed
  # check)
  [validate]="--mode validate"
)
all=(sweep solve solve-k20 asym validate)
names=("${all[@]}")
if [ $# -gt 0 ]; then
  names=("$@")
fi
for name in "${names[@]}"; do
  if [ -z "${args[$name]+set}" ]; then
    echo "unknown run: $name (known: ${all[*]})" >&2
    exit 2
  fi
done

status=0
for name in "${names[@]}"; do
  echo "== $name"
  rc=0
  # shellcheck disable=SC2086  # the arguments hold no spaces
  python -m enstrophy_lab ${args[$name]} --out-dir "$prefix/$name" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "$name exited $rc" >&2
    status=$rc
  fi
done
exit "$status"
