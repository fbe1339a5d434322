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
	"./internal/topology/|-run ^\$ -fuzz FuzzRoutingPlane -fuzztime 30s|database differential: store, node index and batch screen against the cold model"
	"./internal/sim/|-run ^\$ -fuzz FuzzCutThrough -fuzztime 30s|the contract table on C = 0 walks under faults: classic, fixed rings and the reference engine; one shard vs 2 to 8 (their serial fallback) and a 64-slot ring"
	"./internal/sim/|-run ^\$ -fuzz FuzzSpine -fuzztime 30s -fuzzminimizetime 1s|spine vs container/heap model over fuzzer-written operation strings"
	"./internal/election/|-run ^\$ -fuzz FuzzDomain -fuzztime 30s -fuzzminimizetime 1s|election domain vs the map model it replaced, the shared core.NodeIndex included"
	"./internal/reseq/|-run ^\$ -fuzz FuzzReorder -fuzztime 30s|reordering: election recovery, both runtimes"
	"./internal/faults/|-run ^\$ -fuzz FuzzGrayFailure -fuzztime 30s|gray failures: a soak-table row decoded from (seed, slowdown, stall, loss), held to the table's check (invariant I8 and every dimension it arms)"
	"./internal/sim/|-run ^\$ -fuzz FuzzShardCount -fuzztime 30s|the contract table on floods with link flips over split graphs: WithShards(1) vs 2, 3, 4 and 8 shards and a 64-slot ring; classic vs fixed rings and the reference engine"
	"./internal/sim/|-run ^\$ -fuzz FuzzHopBatch -fuzztime 30s|the contract table on pipelined broadcasts at C >= 0: auto-sized ring vs 64- and 8192-slot rings vs the reference engine; one shard vs 2 to 8"
	"./internal/sim/|-run TestHeapBypassC1Regime -count=1 -v|heap bypass: the C >= 1 regime stays on the ring (LaneHitRate >= 0.95)"
	"./internal/topology/|-run ^\$ -bench FloodShardCost -benchtime 1x|what p = 1 costs: bytes per node per origin of the 4,096-node flood on classic, WithShards(1) <= 1,300 and WithShards(2) <= 1,420, equal deliveries"
	"./internal/sim/|-run TestEventRecordFitsItsClass -count=1 -v|event storage: a record <= 80 B, and a chunk's size class leaves less than one record unused (about 83 B per event in flight)"
	"./internal/sim/|-run TestNodeStateSize -count=1 -v|node state: a node <= 80 B in every mode; shard mode's two 16-byte PCG streams and its counters in a side record <= 56 B"
	"./internal/sim/|-run TestStageLoadAllocs -count=1 -v|shard-mode stage: 0 allocs to promote a slot of 1 to 20,000 entries once its buffer has grown"
	"./internal/load/|-run TestOpenLoopAllocsPerCall -count=1 -v|open loop: <= 0.1 allocs/call"
	"./internal/load/|-run TestOpenLoopAllocsPerRun -count=1 -v|open loop: <= 3,500 allocs per whole run on both benchmark shapes (pair-table routes and headers in shared arrays)"
	"./internal/core/|-run TestRoutePairsAllocs -count=1 -v|batch routing: <= 64 objects and <= 215 KB for 4,096 pairs on a 1024-node fabric (routes are windows of shared arrays)"
	"./internal/topology/|-run TestQuietRoundAllocs -count=1 -v|quiet round: <= 20 allocs/broadcast, full knowledge included (plan and records shared)"
	"./internal/topology/|-run TestQuietFloodAllocs -count=1 -v|quiet flood: <= 0.1 allocs/delivery, nothing per forwarded copy"
	"./internal/traffic/|-run TestRelayAllocsPerPacket -count=1 -v|relay: <= 0.1 allocs/packet, both disciplines"
	"./internal/election/|-run TestElectionAllocsPerNode|TestDomainIndexBytes -count=1 -v|election: <= 13 allocs/node, 1024 nodes all starting (protocol structs in slabs); domain indexes <= 64 B/node at 4096 (4-byte slots)"
	"./internal/topology/|-run TestSingleBroadcastAllocsPerNode -count=1 -v|broadcast network: <= 2 allocs/node and <= 1,024 B/node, build + one 4096-node broadcast (slabs, adopted warm start; a relay's routing plane behind a pointer it never makes)"
	"./internal/topology/|-run TestFloodBytesPerNodeFlat -count=1 -v|flood at scale: bytes per node per origin at 4,096 nodes within 1.3x of 1,024 (a database costs what it holds) and <= 1,450 (80-byte event records in chunks that fill their size class)"
	"./internal/topology/|-run TestDBBytesIndependentOfIDRange|TestDBHostileIDCostsRecords|TestDBRoutingRetainsOneTree -count=1 -v|database: 26 records cost the same bytes at any ID range; node 1<<28 beside 17 records <= 64 KB; routing every ordered pair of 256 nodes keeps <= 64 KB more live (one tree of each kind)"
	"./internal/topology/|-run TestPlanRebuildAllocs -count=1 -v|plan rebuild: <= 6 allocs for a full-knowledge origin's plan after a version bump (the plan's own storage; the decomposition in pooled scratch)"
	"./internal/graph/|-run TestBuildAllocs -count=1 -v|graph build: <= 16 allocs for RandomTree(4096) (grown lists carved from a growth spare), <= 4 for its Clone"
	"./internal/faults/|-run TestSoakChurnAllocsPerOp -count=1 -v|churn soak: <= 0.30 allocs/model op and <= 21 MB per rep on the soak-churn shape"
	"./internal/integration/|-race -count=3 -run TestRuntimeContract|TestHostileRouteRefusedOnBothRuntimes|TestHandlerFailureOnBothRuntimes|TestInjectOutsideGraphOnBothRuntimes|TestFactoryCalledInNodeOrder|TestCrossRuntimeDeterminism|the runtime contract's integration half: every runtimetest row on sim classic, at 1, 2 and 8 shards and on gosim against classic's outcome (the send-side table, Env.Fail, a node outside the graph), the factory contract and the determinism goldens, repeated under race"
	"./internal/gosim/|-race -count=3 -run ^Test(GenvSurface|CrashNodeIsolates|CrashAndRestoreNode|RapidFlapLinkEventAccounting|LinkFailureDropAndNotify|GosimMsgFaults.*|GosimHopFilter|GosimHeaderBits|DmaxRejected|CopyPathDeliveries|ReverseRouteReply|InjectLinkOnNonEdgePanics)\$|the runtime contract on gosim alone, the hop filter included (its option is test-only), repeated under race"
)

for row in "${smokes[@]}"; do
	pkg=${row%%|*} why=${row##*|} args=${row#*|}
	args=${args%|*}
	echo "== $why"
	echo "   go test $pkg $args"
	# shellcheck disable=SC2086 # args is a word list
	go test "$pkg" $args
done
