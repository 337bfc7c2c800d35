#!/bin/sh
# Full CI gate — everything bench.sh checks plus formatting, fuzz smoke
# tests and coverage floors:
#
#   1. gofmt (no unformatted files)
#   2. go build ./...                 (tier-1)
#   3. go vet ./...
#   4. go test ./...                  (tier-1; includes the testkit
#      invariant/differential layers and the golden regression suite)
#   5. go test -race ./...
#   6. route-engine differential: compiled vs legacy vs naive oracle,
#      including delta recompilation, the golden engine toggle, and the
#      subsampled power-law differential at 2K-8K ASes, plus the
#      zero-allocation pin on the reused-scratch route kernel
#  6a. generator identity: the lazily seeded per-trial RNG against
#      math/rand draw for draw, the power-law generator's canonical
#      SHA-256 at 8K and 73K ASes, and its allocation budget at 8K
#  6b. resilience differential under -race: the sharded Counter-RAPTOR
#      engine vs the brute-force oracle, the sampled estimator vs the
#      exact matrix, and worker-count invariance
#   7. serve smoke: the loopback monitord end-to-end tests under -race
#      (including ingest-batch-size alert equivalence, the flat-RIB vs
#      trie-reference differential and the monitord/fleet vs batch
#      monitor equivalence checkers), plus the observability wiring
#      (-metrics-addr/-pprof) smoke test
#   8. RIB snapshot round trip: save/restore through the versioned
#      binary snapshot must reproduce the RIB exactly and replay
#      restored routes through the monitor
#   9. metrics lint: every Prometheus exposition (monitord, obs, serve)
#      through the internal/testkit linter, including live-scraped and
#      fleet-aggregated expositions (LintPromURL)
#  9b. loadtest smoke: the fleet load harness against two in-process
#      instances under -race — at least one tracer hijack detected and
#      the aggregated exposition lint-clean — and every tracer detected
#      when tracer origins cross AS65535 (4-byte ASNs over AS4 sessions)
#  9c. fleet router smoke under -race: the sharded watchlist router end
#      to end (BGP + HTTP + merged alerts), the shard-death failover
#      test, the fleet-vs-batch alert-multiset equivalence at widths 1
#      and 4, and the -fleet arms of the serve and loadtest subcommands
#  10. 73K topology smoke: generate the full-Internet-scale power-law
#      graph, compute a destination shard, and delta-recompile one flap
#      through `quicksand topo`
#  11. fuzz smoke: every Fuzz* target for FUZZTIME (default 10s),
#      including FuzzDeltaRecompile (delta ≡ full after every mutation)
#  12. per-package coverage floors (see floor() below)
#
# Run from anywhere; operates on the repository root. Set FUZZTIME=0 to
# skip the fuzz smoke (e.g. on very slow machines).
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== go test ./... (+coverage) =="
cover_out=$(mktemp)
trap 'rm -f "$cover_out"' EXIT
go test -count=1 -cover ./... | tee "$cover_out"

echo "== go test -race ./... =="
go test -race ./...

echo "== route-engine differential (compiled vs legacy vs naive oracle) =="
# The compiled engine must agree bit for bit with the legacy map-based
# implementation and the testkit fixpoint oracle — on random topologies
# (single origin, multi-origin hijack, announcement scoping, ROV
# filters), across delta recompilations after graph mutations, and in
# the end-to-end golden pipeline with the engine toggled off. With its
# snapshot, scratch and result array reused, the kernel must allocate
# nothing per table.
go test -count=1 -run 'TestOracleAgrees|TestCompiledEngineAfterMutations|TestCompiledMatchesLegacy|TestCompiledDeltaRecompile|TestGoldenEngineInvariance|TestScaledDifferential|TestDeltaRecompileRandomChurn|TestComputeRoutesIntoZeroAlloc' \
    ./internal/testkit/ ./internal/topology/ ./cmd/quicksand/

echo "== generator identity (lazy per-trial RNG vs math/rand, power-law golden) =="
# par.TrialRand must reproduce rand.New(rand.NewSource(TrialSeed(...)))
# draw for draw, through the lazy lags and past them into the replayed
# source; the power-law graph must hash to the values pinned before the
# lazy RNG existed; and generating 8K ASes must stay within 8 MiB.
go test -count=1 -run 'TestTrialRandMatchesMathRand|TestPowerLawGolden|TestPowerLawAllocBudget' \
    ./internal/par/ ./internal/topology/

echo "== resilience differential (sharded engine vs brute-force oracle, -race) =="
# The Counter-RAPTOR matrix must agree with the independent brute-force
# oracle on every checked (client, guard) pair, the sampled estimator
# must land within its reported 95% bound against the exact matrix, and
# results must be bit-identical for any worker count — all under the
# race detector (the engine shards by guard over internal/par).
go test -race -count=1 -run 'TestExactMatchesOracle|TestSampledWithinBound|TestWorkerInvariance|TestEngineCacheVersioning' \
    ./internal/resilience/

echo "== serve smoke (loopback daemon end-to-end, -race) =="
# The monitord acceptance path: boot `quicksand serve` wiring and the
# daemon on loopback, replay an interception over a real BGP session,
# and read alerts/metrics back over HTTP with the race detector on. The
# live RIB must agree with the trie-backed reference after every step of
# random streams, and the daemon and the fleet must raise the batch
# monitor's alert multiset.
go test -race -count=1 -run 'TestServeSmoke|TestServeObsSmoke|TestServeEndToEnd|TestCollectorReconnect|TestBatchSizeEquivalence|TestRIBDifferential|TestMonitordMatchesBatchMonitor|TestFleetMatchesBatchMonitor' \
    ./cmd/quicksand/ ./internal/monitord/ ./internal/testkit/

echo "== RIB snapshot round trip =="
# Save the live RIB to the versioned binary snapshot and restore it into
# a fresh daemon: the table must round-trip bit for bit (including
# empty-AS_PATH announcements and absent withdrawn prefixes) and the
# restored routes must replay through the streaming monitor. A header
# claiming 2^28 sessions must fail without reserving memory for them, and
# a fixed update stream must save to the golden snapshot byte for byte.
go test -count=1 -run 'TestSnapshotRoundTrip|TestSnapshotFileRoundTrip|TestSnapshotReplaysThroughMonitor|TestSnapshotRejectsGarbage|TestSnapshotHostileSessionCount|TestSnapshotGolden' \
    ./internal/monitord/

echo "== metrics lint (Prometheus exposition format) =="
# Every text exposition the repository serves — the monitord daemon's
# /metrics, the obs registry writer, the serve wiring, and the
# fleet-aggregated output of the obs scraper — must pass the shared
# parser/linter in internal/testkit (in-process and over HTTP).
go test -count=1 -run 'TestMetricsLint|TestMetricsGolden|TestExpositionPassesLint|TestServeObsSmoke|TestLintPromURL' \
    ./internal/monitord/ ./internal/obs/ ./cmd/quicksand/ ./internal/testkit/

echo "== loadtest smoke (fleet harness + aggregated metrics, -race) =="
# The fleet load harness end to end under the race detector: two
# in-process monitord instances, real TCP load sessions, tracer hijacks
# detected through the HTTP /alerts API, and the merged two-instance
# exposition lint-clean. Tracer origins past AS65535 must survive the
# wire as 4-byte ASNs, so every tracer is still detected.
go test -race -count=1 -run 'TestLoadtestSmoke|TestLoadtestCmdJSON|TestTracersPastAS65535' \
    ./cmd/quicksand/ ./internal/loadgen/

echo "== fleet router smoke (sharded watchlist + failover + equivalence, -race) =="
# The fleet tentpole under the race detector: the router's longest-
# prefix-aware dispatch over real BGP sessions and the merged HTTP
# surface, the shard-death failover guarantees (survivor continuity,
# bounded redial, post-restart replay), the fleet-vs-batch alert
# multiset equivalence at widths 1 and 4 (including more-specific
# hijacks that must cross shard-hash boundaries), and the -fleet arms
# of serve and loadtest.
go test -race -count=1 -run 'TestRouterInprocAlerts|TestRouterBGPAndHTTP|TestFleetShardDeathFailover|TestFleetMatchesBatchMonitor|TestServeFleetSmoke|TestLoadtestFleetSmoke' \
    ./internal/fleet/ ./internal/testkit/ ./cmd/quicksand/

echo "== 73K topology smoke (generate + shard + delta recompile) =="
# The full-Internet-scale path end to end: generate 73,000 ASes, compute
# a small destination shard, run a couple of hijack trials, and drive
# link flaps through delta recompilation. Scale-sensitive invariants
# (connectivity, memory budget, delta ≡ full) are covered by the test
# suite; this pins the binary's wiring at real scale.
topo_bin=$(mktemp)
go build -o "$topo_bin" ./cmd/quicksand
"$topo_bin" topo -dests 2 -hijacks 2 -churn 1
rm -f "$topo_bin"

if [ "$FUZZTIME" != "0" ]; then
    echo "== fuzz smoke ($FUZZTIME per target) =="
    # -fuzzminimizetime=1x: on small machines the default 60s minimization
    # budget per new interesting input would eat the whole smoke window.
    for pkg in $(go list ./...); do
        for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
            echo "-- $pkg $target"
            go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" \
                -fuzzminimizetime=1x "$pkg"
        done
    done
fi

echo "== coverage floors =="
# Floors sit safely below current values so routine changes pass while
# real coverage regressions fail. Raise them as coverage improves.
awk '
function floor(pkg) {
    if (pkg == "quicksand/cmd/quicksand") return 40    # main() wiring untested
    if (pkg == "quicksand/cmd/bgpgen") return 50       # main() wiring untested
    if (pkg == "quicksand/cmd/torgen") return 50       # main() wiring untested
    if (pkg == "quicksand/internal/monitord") return 80 # daemon floor (required)
    if (pkg == "quicksand/internal/fleet") return 80    # fleet router floor (required)
    if (pkg == "quicksand/internal/obs") return 80      # observability floor (required)
    if (pkg == "quicksand/internal/topology") return 90 # route-engine floor (required)
    if (pkg == "quicksand/internal/resilience") return 85 # resilience engine floor (required)
    return 80                                          # library packages
}
$1 == "ok" {
    pkg = $2
    pct = ""
    for (i = 3; i <= NF; i++)
        if ($i == "coverage:") { pct = $(i + 1); sub(/%/, "", pct) }
    if (pct == "") next
    printf "%-40s %6.1f%% (floor %d%%)\n", pkg, pct, floor(pkg)
    if (pct + 0 < floor(pkg)) {
        printf "FAIL: %s coverage %.1f%% below floor %d%%\n", pkg, pct, floor(pkg)
        bad = 1
    }
}
END { exit bad }
' "$cover_out"

echo "OK"
