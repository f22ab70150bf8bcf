#!/bin/sh
# The repo's full gate: compile everything (all libraries build with
# warnings-as-errors), run the custom lint pass, then the test suite.
# See docs/ANALYSIS.md for what the lint and the invariant verifier
# enforce. Numeric gates go through `scmp_sim metric` (loud on a
# missing key) and `scmp_sim ab` (noise-aware comparison against the
# committed baselines) instead of grep/awk threshold hacks.
set -e
cd "$(dirname "$0")"

SIM="dune exec bin/scmp_sim.exe --"

echo "== dune build"
dune build

echo "== dune build @lint"
dune build @lint

# Lint gate: the AST lint must be clean against the committed baseline
# (new Warn findings, any Error, or unused suppressions fail), and the
# scmp-lint/1 report must be byte-identical across two runs.
echo "== lint gate (baseline + deterministic report)"
dune exec bin/scmp_lint.exe -- --json /tmp/lint1.json \
  --baseline lint-baseline.json lib bin > /dev/null
dune exec bin/scmp_lint.exe -- --json /tmp/lint2.json \
  --baseline lint-baseline.json lib bin > /dev/null
cmp /tmp/lint1.json /tmp/lint2.json
grep -q '"schema": "scmp-lint/1"' /tmp/lint1.json

echo "== dune runtest"
dune runtest

# Bench gate: the reduced-quota micro run is diffed against the
# committed BENCH.json with the noise-aware bench profile — exact
# match on deterministic simulation counts, a tight band on the
# drift-immune dijkstra speedup ratio, a loose band on raw ns figures
# (host speed drifts by tens of percent between runs), wall/throughput
# numbers informational. Replaces the old absolute awk thresholds.
echo "== bench gate (micro smoke vs BENCH.json, ab bench profile)"
dune exec bench/main.exe -- micro --json /tmp/bench_smoke.json > /dev/null
grep -q '"schema": "scmp-report/1"' /tmp/bench_smoke.json
$SIM ab BENCH.json /tmp/bench_smoke.json --profile bench
# The event-kernel overhaul's absolute floor: the radix-heap +
# dispatch-record engine must hold at least 2x over the preserved
# heap-and-thunks reference on the churn workload. Paired interleaved
# batches, so the ratio is immune to host speed drift.
$SIM metric /tmp/bench_smoke.json 'micro/engine-churn-speedup/x' --ge 2.0 > /dev/null
# The dijkstra redesign's absolute floor: CSR + radix-heap Dijkstra
# must hold at least 3x over the preserved adjacency-list + binary-heap
# reference on a 100-node graph, same paired discipline.
$SIM metric /tmp/bench_smoke.json 'micro/dijkstra-100-speedup/x' --ge 3.0 > /dev/null
# Placement rule 1's floor: the pruned pick (cut searches that stop
# once a candidate provably loses) must hold at least 2.5x over the
# preserved full scan of one complete Dijkstra per node on a
# Waxman-1000, same paired discipline.
$SIM metric /tmp/bench_smoke.json 'micro/placement-1000-speedup/x' --ge 2.5 > /dev/null
# The live delay CSR's floor: delay SPTs for 300 sources on a fresh
# Waxman-1000 table, whose live CSR shrinks as they run, must hold at
# least 1.05x over full-CSR runs of the same sources, same paired
# discipline.
$SIM metric /tmp/bench_smoke.json 'micro/apsp-delay-1000-speedup/x' --ge 1.05 > /dev/null
# The dijkstra redesign's structural claim: no hashtable lookups remain
# on the SPT / APSP / route-invalidation hot path — CSR arrays and
# edge-id bitsets only.
if grep -n "Hashtbl" lib/netgraph/dijkstra.ml lib/netgraph/apsp.ml \
  lib/eventsim/routes.ml; then
  echo "check.sh: Hashtbl on the routing hot path" >&2
  exit 1
fi

# Fault smoke: SCMP survives 5% control-plane loss plus a scripted
# mid-session failure of tree link 23-24 (ARPANET seed 1) — invariants
# checked, at least one repair recorded, delivery ratio >= 0.95.
echo "== fault smoke (loss + scripted link failure)"
$SIM run --topo arpanet --seed 1 -p scmp --check \
  --loss 0.05 --loss-class control --loss-seed 42 \
  --fail-link '23-24@15.0' --report /tmp/fault_smoke.json > /dev/null
$SIM metric /tmp/fault_smoke.json 'scmp/repair/count' --ge 1 > /dev/null
$SIM metric /tmp/fault_smoke.json 'scmp/retransmissions' > /dev/null
$SIM metric /tmp/fault_smoke.json 'delivery/ratio' --ge 0.95 > /dev/null

# HPIM-DM control-loss smoke: the interest syncs ride the same
# reliable transport (Protocols.Reliable) as SCMP's requests and
# frames — under 5% control loss they must retransmit and still
# deliver, and the run must be deterministic.
echo "== hpim-dm control-loss smoke (reliable interest syncs)"
$SIM run --topo arpanet --seed 1 -p hpim-dm --check \
  --loss 0.05 --loss-class control --loss-seed 42 \
  --report /tmp/hpim_loss_smoke.json > /tmp/hpim_loss_smoke1.txt
$SIM run --topo arpanet --seed 1 -p hpim-dm --check \
  --loss 0.05 --loss-class control --loss-seed 42 > /tmp/hpim_loss_smoke2.txt
grep -v 'report written' /tmp/hpim_loss_smoke1.txt | cmp - /tmp/hpim_loss_smoke2.txt
$SIM metric /tmp/hpim_loss_smoke.json 'hpim/retransmissions' --ge 1 > /dev/null
$SIM metric /tmp/hpim_loss_smoke.json 'delivery/ratio' --ge 0.95 > /dev/null
# One retry loop: the backoff formula lives in lib/protocols/reliable.ml
# only; the protocols that use it must not grow their own again.
if grep -nE '2\.0 \*\*|\*\. 2\.' lib/protocols/scmp_proto.ml \
  lib/protocols/hpim_dm.ml; then
  echo "check.sh: backoff formula outside Protocols.Reliable" >&2
  exit 1
fi

# One drain: every Dijkstra search, over the whole graph or a CSR view,
# is Radix_heap.drain_csr; the graph layer must not grow a pop loop of
# its own again, nor the heap a batch pop to feed one.
if grep -rn 'Radix_heap\.pop' lib/netgraph/ \
  || grep -n 'pop_run' lib/util/radix_heap.mli; then
  echo "check.sh: a Dijkstra drain outside Radix_heap.drain_csr" >&2
  exit 1
fi

# One fan-out: every driver's data plane sends through
# lib/protocols/forwarding.ml; no driver may walk a router's neighbours
# with a loop of its own again.
if grep -rn 'Graph\.neighbors\|Graph\.iter_incident' lib/protocols/ \
  | grep -v '^lib/protocols/forwarding\.ml:'; then
  echo "check.sh: a neighbour fan-out outside Protocols.Forwarding" >&2
  exit 1
fi
# Packed per-packet state: DVMRP, MOSPF, PIM-SM and HPIM-DM key their
# state by packed ints (Forwarding maps, CSR slots, router ids); no
# polymorphic Hashtbl or tuple-keyed table may come back to their data
# plane.
if grep -nE 'Hashtbl|\((node|int) \* (node|int|Message\.group)' \
  lib/protocols/dvmrp.ml lib/protocols/mospf.ml lib/protocols/pim_sm.ml \
  lib/protocols/hpim_dm.ml; then
  echo "check.sh: tuple-keyed or polymorphic table in a driver's per-packet state" >&2
  exit 1
fi

# One network builder: the grid-unit-to-seconds delay conversion is
# written once, in Topology.Spec.sim_graph.
if [ "$(grep -rl '3e-6' lib bin bench examples test | wc -l)" -ne 1 ]; then
  grep -rn '3e-6' lib bin bench examples test >&2
  echo "check.sh: delay conversion written outside Topology.Spec.sim_graph" >&2
  exit 1
fi

# Trace gate: on a lossy run, trace-stats must agree with the run's own
# counters — its crossings are the transmissions, its drops (counted
# apart from crossings) are net/dropped.
echo "== trace gate (trace-stats vs run counters, lossy run)"
$SIM run --topo arpanet --seed 1 -p scmp --loss 0.05 --loss-seed 42 \
  --trace /tmp/trace_gate.tr --report /tmp/trace_gate.json > /dev/null
$SIM trace-stats /tmp/trace_gate.tr > /tmp/trace_gate.txt
crossings=$(awk 'NR == 1 && $2 == "crossings" { print $1 }' /tmp/trace_gate.txt)
drops=$(awk 'NR == 2 && $2 == "drops" { print $1 }' /tmp/trace_gate.txt)
data=$($SIM metric /tmp/trace_gate.json 'net/data/transmissions')
control=$($SIM metric /tmp/trace_gate.json 'net/control/transmissions')
if [ "$crossings" != "$((data + control))" ]; then
  echo "check.sh: trace-stats counts $crossings crossings, the run $((data + control)) transmissions" >&2
  exit 1
fi
$SIM metric /tmp/trace_gate.json 'net/dropped' --ge 1 > /dev/null
$SIM metric /tmp/trace_gate.json 'net/dropped' --eq "$drops" > /dev/null

# Routing-cache smoke: a fault-heavy run must reconverge once per
# effective fault while the demand-driven cache builds far fewer SPTs
# than eager recomputation (n per epoch, 80 x 8 = 640 here) would.
echo "== routing cache smoke (fault-heavy sim, lazy SPTs)"
$SIM run --topo waxman:80 --seed 3 -p scmp \
  --fault-seed 5 --fault-count 8 --report /tmp/routing_smoke.json > /dev/null
$SIM metric /tmp/routing_smoke.json 'net/routes_epoch' --ge 8 > /dev/null
epochs=$($SIM metric /tmp/routing_smoke.json 'net/routes_epoch')
spts=$($SIM metric /tmp/routing_smoke.json 'routes/spt_computed')
awk "BEGIN { exit !($spts < 80 * $epochs / 4) }"

# SPT-sharing smoke: with no fault live, every routes-cache fill must
# borrow the m-router's unfiltered delay SPT from its APSP table
# instead of building its own.
echo "== spt sharing smoke (fault-free sim, routes borrow APSP SPTs)"
$SIM run --topo waxman:200 --seed 1 -p scmp \
  --report /tmp/spt_share_smoke.json > /dev/null
$SIM metric /tmp/spt_share_smoke.json 'routes/spt_shared' --ge 1 > /dev/null
fills=$($SIM metric /tmp/spt_share_smoke.json 'routes/spt_computed')
$SIM metric /tmp/spt_share_smoke.json 'routes/spt_shared' --eq "$fills" > /dev/null

# Sweep smoke: the parallel engine must produce a merged report that is
# byte-identical to the sequential one (deterministic merge), covering
# the full 2x2 grid.
echo "== sweep smoke (parallel vs sequential determinism)"
$SIM sweep --drivers scmp,cbt \
  --topo random3:30 --group-sizes 8,16 --seeds 1 --packets 10 \
  --jobs 2 --report /tmp/sweep_j2.json > /dev/null
$SIM sweep --drivers scmp,cbt \
  --topo random3:30 --group-sizes 8,16 --seeds 1 --packets 10 \
  --jobs 1 --report /tmp/sweep_j1.json > /dev/null
cmp /tmp/sweep_j1.json /tmp/sweep_j2.json
$SIM metric /tmp/sweep_j2.json 'sweep/cells' --eq 4 > /dev/null

# Manifest smoke: the declarative fault-comparison scenario (scmp,
# pim-sm, dvmrp and hpim-dm head-to-head under a scripted link
# failure) must run from its checked-in manifest, merge byte-identically
# for any jobs count, carry per-cell rows for every driver, and match
# the committed baseline report exactly.
echo "== manifest smoke (scenario sweep + ab vs committed baseline)"
$SIM sweep --manifest examples/scenarios/fault_compare.json \
  --jobs 1 --report /tmp/manifest_j1.json > /dev/null
$SIM sweep --manifest examples/scenarios/fault_compare.json \
  --jobs 4 --report /tmp/manifest_j4.json > /dev/null
cmp /tmp/manifest_j1.json /tmp/manifest_j4.json
$SIM metric /tmp/manifest_j1.json 'cell/hpim-dm/arpanet/k16/s1/deliveries' \
  --ge 1 > /dev/null
$SIM ab examples/scenarios/fault_compare.baseline.json /tmp/manifest_j1.json \
  --quiet

# Flags-versus-manifest gate: the sweep grid flags lower into a
# scmp-scenario/1 manifest and run through the same validator and
# lowering as --manifest, so the flag spelling of clean_compare.json
# must produce a byte-identical merged report.
echo "== sweep flags = manifest (clean_compare)"
$SIM sweep --drivers scmp,cbt,dvmrp,mospf,pim-sm,hpim-dm \
  --topo arpanet --topo waxman:60 --group-sizes 8,16 --seeds 1,2 \
  --packets 30 --master-seed 1 --report /tmp/sweep_flags.json > /dev/null
$SIM sweep --manifest examples/scenarios/clean_compare.json \
  --report /tmp/sweep_manifest.json > /dev/null
cmp /tmp/sweep_flags.json /tmp/sweep_manifest.json

# Figure gate: Figs 8/9 and the BRANCH-vs-TREE ablation are manifests.
# Both run with invariants on, so a missed, duplicate or spurious
# delivery fails the cell that had it; their tables, rendered by
# `scmp_sim table`, must match the committed ones (and EXPERIMENTS.md)
# byte for byte.
echo "== figure manifests (fig8, branch; invariants on, tables vs committed)"
$SIM sweep --manifest examples/scenarios/fig8.json --jobs 2 \
  --report /tmp/fig8.json > /dev/null
$SIM sweep --manifest examples/scenarios/branch.json --jobs 2 \
  --report /tmp/branch.json > /dev/null
for metric in data_overhead protocol_overhead max_delay; do
  $SIM table /tmp/fig8.json "$metric"
done > /tmp/fig8.tables.txt
cmp examples/scenarios/fig8.tables.txt /tmp/fig8.tables.txt
$SIM table /tmp/branch.json protocol_overhead > /tmp/branch.tables.txt
cmp examples/scenarios/branch.tables.txt /tmp/branch.tables.txt
for fig in fig8 branch; do
  block="examples/scenarios/$fig.tables.txt"
  sed -n "\|^\`\`\`text $block\$|,\|^\`\`\`\$|p" EXPERIMENTS.md | sed '1d;$d' \
    | cmp "$block" -
done

# Malformed-input gate: a perturbation program that is out of range or
# does not fit the topology is an error with a message (exit 1 or 2),
# never an escaped exception, whether it comes from run's flags or from
# a manifest's cells; so is a trace that is a directory, and a report
# `table` cannot read or that lacks the metric.
echo "== malformed input is an error (run flags, manifest, trace, table)"
malformed() {
  set +e
  "$@" > /dev/null 2> /tmp/malformed.err
  code=$?
  set -e
  if { [ "$code" -ne 1 ] && [ "$code" -ne 2 ]; } \
    || grep -qE 'uncaught exception|Invalid_argument' /tmp/malformed.err; then
    echo "check.sh: '$*' exited $code:" >&2
    cat /tmp/malformed.err >&2
    exit 1
  fi
}
for flags in --loss=1.5 --fail-link=0-40@5 --fail-node=999@5 \
  --fail-link=1-2@nan; do
  malformed $SIM run --topo arpanet -p scmp --packets 5 "$flags"
done
cat > /tmp/malformed_manifest.json <<'EOF'
{
  "schema": "scmp-scenario/1",
  "name": "malformed",
  "drivers": ["scmp"],
  "topologies": ["arpanet"],
  "group_sizes": [8],
  "packets": 5,
  "link_failures": ["0-99@5.0"]
}
EOF
malformed $SIM sweep --manifest /tmp/malformed_manifest.json --jobs 1
# A churn too dense to simulate is refused up front, not run for ever.
malformed timeout 10 $SIM run --topo arpanet -p scmp --packets 5 \
  --churn-rate=1e300
malformed $SIM trace-stats /tmp
head -c 2000 /tmp/branch.json > /tmp/truncated_report.json
malformed $SIM table /tmp/truncated_report.json protocol_overhead
malformed $SIM table /tmp/branch.json no_such_metric

# Split-brain smoke: partition the primary m-router away mid-session
# on a scripted cut and heal it — invariants on (stale-epoch fencing
# included), full delivery.
echo "== partition smoke (scripted partition + heal, invariants on)"
$SIM run --topo waxman:40 --seed 7 -p scmp \
  --check --partition '3,5,9@5.0:heal@6.0' \
  --report /tmp/partition_smoke.json > /dev/null
$SIM metric /tmp/partition_smoke.json 'faults/partition' --eq 1 > /dev/null
$SIM metric /tmp/partition_smoke.json 'faults/heal' --eq 1 > /dev/null
$SIM metric /tmp/partition_smoke.json 'delivery/ratio' --ge 0.95 > /dev/null

# Chaos smoke: a fixed-seed 20-trial campaign (randomized link flaps,
# crashes, partitions, m-router kills, loss) must trip zero invariants,
# the campaign report must be byte-identical for jobs=1 and jobs=4, and
# it must match the committed baseline byte for byte: the plan's draw
# order (background loss included) and every trial's outcome are pinned
# across commits.
echo "== chaos smoke (seeded campaign, 0 violations, jobs determinism, baseline)"
$SIM chaos --trials 20 --seed 1 --topo waxman:40 \
  --drivers scmp --jobs 1 --report /tmp/chaos_j1.json > /dev/null
$SIM chaos --trials 20 --seed 1 --topo waxman:40 \
  --drivers scmp --jobs 4 --report /tmp/chaos_j4.json > /dev/null
cmp /tmp/chaos_j1.json /tmp/chaos_j4.json
cmp examples/scenarios/chaos_smoke.baseline.json /tmp/chaos_j1.json
$SIM metric /tmp/chaos_j1.json 'chaos/trials' --eq 20 > /dev/null
$SIM metric /tmp/chaos_j1.json 'chaos/violations' --eq 0 > /dev/null

echo "check.sh: all gates passed"
