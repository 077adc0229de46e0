#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload: the benchmark command of BENCHMARK.json.
#       The last line of standard output is the result as one JSON object.
#   bench/run.sh --all           [--seed N] [--seconds S]
#       every workload, tracing off and then traced; records and trace
#       files land in bench/out/all/.
#   bench/run.sh --repeat-check  [--seed N] [--seconds S]
#       every workload twice on one seed, then both medians, both
#       inter-quartile ranges, the difference and PASS/FAIL per metric.
#   bench/run.sh --spread-check  [--runs K] [--seconds S]
#       every workload on seeds 1..K (default 10), then each end-to-end
#       metric's inter-quartile spread against its bound: the check a
#       benchmark change has to pass.
#   bench/run.sh --smoke
#       gofmt, go vet and the smoke tests of this directory (seconds).
#
# Everything it writes stays under bench/out/, the Go build cache too.
set -euo pipefail

cd "$(dirname "$0")/.."
out=bench/out
bin=$out/bench.test
export GOCACHE="$PWD/$out/gocache" GOPROXY=off GOTOOLCHAIN=local

build() {
	# Rebuild when the binary is missing or any Go source of the checkout
	# is newer; otherwise a run costs no link step.
	if [[ -x $bin ]] && [[ -z $(find . -path "./$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit) ]]; then
		return
	fi
	mkdir -p "$out"
	(cd bench && go test -c -o out/bench.test .) >&2
}

rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)

# run_set DIR TRACE SEED SECONDS: one run of every workload, records to
# DIR. A run whose output was wrong does not stop the set; it fails it.
status=0
run_set() {
	local dir=$1 trace=$2 seed=$3 seconds=$4 w
	for w in $("$bin" -list); do
		"$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace "$trace" -rev "$rev" \
			-out "$dir/$w.seed$seed.json" -trace-out "$dir/$w.trace.json" | sed '$d' || status=1
	done
}

mode=${1:-}
case $mode in
--all | --repeat-check | --spread-check | --smoke) shift ;;
*) mode=run ;;
esac
seed=1 seconds=10 runs=10
if [[ $mode != run ]]; then
	while (($#)); do
		case $1 in
		--seed) seed=$2 ;;
		--seconds) seconds=$2 ;;
		--runs) runs=$2 ;;
		*)
			echo "run.sh: unknown option $1" >&2
			exit 2
			;;
		esac
		shift 2
	done
fi

case $mode in
run)
	build
	exec "$bin" -rev "$rev" "$@"
	;;
--all)
	build
	rm -rf "$out/all"
	run_set "$out/all" 0 "$seed" "$seconds"
	run_set "$out/all/traced" 1 "$seed" "$seconds"
	exit $status
	;;
--repeat-check)
	build
	rm -rf "$out/repeat"
	run_set "$out/repeat/1" 0 "$seed" "$seconds"
	run_set "$out/repeat/2" 0 "$seed" "$seconds"
	"$bin" -repeat-check "$out/repeat/1,$out/repeat/2" || status=1
	exit $status
	;;
--spread-check)
	build
	rm -rf "$out/spread"
	for ((s = 1; s <= runs; s++)); do
		run_set "$out/spread" 0 "$s" "$seconds"
	done
	"$bin" -spread-check "$out/spread" || status=1
	exit $status
	;;
--smoke)
	unformatted=$(gofmt -l bench)
	if [[ -n $unformatted ]]; then
		echo "gofmt needed on: $unformatted" >&2
		exit 1
	fi
	cd bench
	go vet .
	go test -count=1 .
	;;
esac
