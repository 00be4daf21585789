#!/usr/bin/env sh
# Writes one `papc_cli --json` result per registered protocol and fault plan,
# for byte-identity checks between two builds or two settings.
#
# The grid is every protocol from `papc_cli --list-protocols` x {clean,
# faulted} at n = 2000, seed 5: 24 files named <protocol>-<plan>.json.
# Protocols listed as "(k = 2 only)" run at k = 2, the rest at the CLI's
# default k. The faulted plan is loss 0.1, duplication 0.05, crash rate
# 0.001, straggler fraction 0.05 and Byzantine fraction 0.02. Any further
# arguments are passed to every run.
#
# Usage:
#   scripts/result-dump.sh PAPC_CLI OUT_DIR [papc_cli flags...]
#
# Examples:
#   scripts/result-dump.sh build/papc_cli dump-t1 --threads 1
#   scripts/result-dump.sh build/papc_cli dump-t4 --threads 4
#   sed -i 's/"threads": [0-9]*/"threads": "*"/' dump-t1/* dump-t4/*
#   diff -r dump-t1 dump-t4
#
# A faulted run that ends without consensus exits with code 2; its document
# is still written. Any other non-zero exit fails the script.

set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 PAPC_CLI OUT_DIR [papc_cli flags...]" >&2
    exit 1
fi
cli="$1"
out="$2"
shift 2
mkdir -p "$out"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

faults="--fault_loss 0.1 --fault_dup 0.05 --fault_crash_rate 0.001"
faults="$faults --fault_straggler_frac 0.05 --byzantine_frac 0.02"

"$cli" --list-protocols | grep -v '^ ' | while read -r protocol _ rest; do
    k_flag=""
    case "$rest" in
        *"(k = 2 only)"*) k_flag="--k 2" ;;
    esac
    for plan in clean faulted; do
        plan_flags=""
        if [ "$plan" = faulted ]; then plan_flags="$faults"; fi
        status=0
        # shellcheck disable=SC2086
        "$cli" --protocol "$protocol" --n 2000 --seed 5 $k_flag $plan_flags \
            --quiet "$@" --json - > "$out/$protocol-$plan.json" \
            2> "$log" || status=$?
        if [ "$status" -ne 0 ] && [ "$status" -ne 2 ]; then
            cat "$log" >&2
            echo "$protocol $plan exited $status" >&2
            exit 1
        fi
    done
done
ls "$out"/*.json | wc -l | xargs echo "result-dump: files written:"
