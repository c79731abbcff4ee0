#!/usr/bin/env bash
# Run every configured experiment into results/<name>/.
# Usage: scripts/run_experiments.sh [results_dir]
set -u

here="$(cd "$(dirname "$0")" && pwd)"
# run this checkout's package, not an installed copy
export PYTHONPATH="$here/../src${PYTHONPATH:+:$PYTHONPATH}"
# single-threaded BLAS unless the caller sets a thread count: small scipy
# solves run far slower under a multithreaded BLAS on a loaded machine
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"
export MKL_NUM_THREADS="${MKL_NUM_THREADS:-1}"
results="${1:-$here/../results}"
mkdir -p "$results"

declare -a runs=(
    "fundamental $here/configs/fundamental_free.yaml fundamental_free"
    "fundamental $here/configs/fundamental_kernel.yaml fundamental_kernel"
    "operators $here/configs/operators_moreau.yaml operators_moreau"
    "discounted $here/configs/discounted_cos.yaml discounted_cos"
    "regularize $here/configs/regularize_dw.yaml regularize_dw"
    "singularity $here/configs/singularity_dw.yaml singularity_dw"
    "propcheck $here/configs/propcheck_catalog.yaml propcheck_catalog"
    "lambda-sweep $here/configs/lambda_sweep_constant.yaml lambda_sweep_constant"
)

status=0
for spec in "${runs[@]}"; do
    read -r kind config name <<<"$spec"
    out="$results/$name"
    echo "== $name ($kind) -> $out"
    python3 -m hjlax.cli "$kind" --config "$config" --out "$out"
    code=$?
    echo "   exit $code"
    if [ "$code" -ne 0 ]; then
        status=1
    fi
done

echo
echo "results under $results"
exit $status
