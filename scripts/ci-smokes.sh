#!/usr/bin/env bash
# The single-test smokes CI runs after the race suite, one row each:
#
#   package | go test arguments | why it runs on its own
#
# (the arguments may hold a | of their own: a -run alternation).
# A fuzz row spends its -fuzztime looking for new inputs (the race suite only
# replays the seed corpus); an allocation-budget row reruns a test the race
# suite already ran, because the race runtime allocates too and the budgets
# are stated without it. A reason longer than a line lives on the test.
# Run from anywhere; stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

smokes=(
	"./internal/topology/|-run FuzzFaultSchedule -count=1|fuzz seeds: the committed fault-schedule corpus, uncached"
	"./internal/reliable/|-run ^\$ -fuzz FuzzReliableDelivery -fuzztime 30s|reliable delivery under loss"
	"./internal/topology/|-run ^\$ -fuzz FuzzRoutingPlane -fuzztime 30s|routing-plane cache differential"
	"./internal/sim/|-run ^\$ -fuzz FuzzCutThrough -fuzztime 30s|production engine vs reference engine, C = 0 walks under faults"
	"./internal/sim/|-run ^\$ -fuzz FuzzSpine -fuzztime 30s -fuzzminimizetime 1s|spine vs container/heap model over fuzzer-written operation strings"
	"./internal/election/|-run ^\$ -fuzz FuzzDomain -fuzztime 30s -fuzzminimizetime 1s|election domain vs the map model it replaced"
	"./internal/reseq/|-run ^\$ -fuzz FuzzReorder -fuzztime 30s|reordering: election recovery, both runtimes"
	"./internal/faults/|-run ^\$ -fuzz FuzzGrayFailure -fuzztime 30s|gray failures: slowdown/stall envelope, invariant I8"
	"./internal/sim/|-run ^\$ -fuzz FuzzShardCount -fuzztime 30s|sharded vs serial scheduler differential"
	"./internal/sim/|-run ^\$ -fuzz FuzzHopBatch -fuzztime 30s|C >= 1 spine: auto-sized ring vs 64-slot ring vs reference engine"
	"./internal/sim/|-run TestHeapBypassC1Regime -count=1 -v|heap bypass: the C >= 1 regime stays on the ring (LaneHitRate >= 0.95)"
	"./internal/load/|-run TestOpenLoopAllocsPerCall -count=1 -v|open loop: <= 0.1 allocs/call"
	"./internal/load/|-run TestOpenLoopAllocsPerRun -count=1 -v|open loop: <= 12,500 allocs per whole run on both benchmark shapes"
	"./internal/topology/|-run TestQuietRoundAllocs -count=1 -v|quiet round: <= 20 allocs/broadcast, full knowledge included (plan and records shared)"
	"./internal/topology/|-run TestQuietFloodAllocs -count=1 -v|quiet flood: <= 0.1 allocs/delivery, nothing per forwarded copy"
	"./internal/traffic/|-run TestRelayAllocsPerPacket -count=1 -v|relay: <= 0.1 allocs/packet, both disciplines"
	"./internal/election/|-run TestElectionAllocsPerNode -count=1 -v|election: <= 13 allocs/node, 1024 nodes all starting (protocol structs in slabs)"
	"./internal/topology/|-run TestSingleBroadcastAllocsPerNode -count=1 -v|broadcast network: <= 2 allocs/node, build + one 4096-node broadcast (slabs, adopted warm start)"
	"./internal/graph/|-run TestBuildAllocs -count=1 -v|graph build: <= 400 allocs for RandomTree(4096), <= 4 for its Clone"
	"./internal/faults/|-run TestSoakChurnAllocsPerOp -count=1 -v|churn soak: <= 0.8 allocs/model op on the soak-churn shape"
	"./internal/integration/|-race -count=3 -run TestHostileRouteRefusedOnBothRuntimes|TestFactoryCalledInNodeOrder|TestCrossRuntimeDeterminism|the two runtimes' contract table, factory contract and determinism goldens, repeated under race"
)

for row in "${smokes[@]}"; do
	pkg=${row%%|*} why=${row##*|} args=${row#*|}
	args=${args%|*}
	echo "== $why"
	echo "   go test $pkg $args"
	# shellcheck disable=SC2086 # args is a word list
	go test "$pkg" $args
done
