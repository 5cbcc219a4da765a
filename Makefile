# Development entry points. `make check` is the gate CI (and humans)
# should run before merging.

GO ?= go

.PHONY: all build fmt vet test race race-core race-shard check examples-check figs figs-check figs-paper fig-csvs bench-sim bench-hot bench-ledger bench-pair loc lake-baseline lake-regression chaos-smoke introspection-smoke sweep-demo workload-demo forensics-demo faults-demo clean clean-results

all: check

build:
	$(GO) build ./...

# Formatting gate: fails, naming them, when gofmt would rewrite any file.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the packages with shared mutable hot paths (the
# engine, the network, the transport stack incl. the scheme table, and
# the fault-plan scheduler that mutates ports mid-run); faster than the
# full -race sweep, used as a dedicated CI job.
race-core:
	$(GO) test -race ./internal/sim/... ./internal/netem/... ./internal/transport/... ./internal/faults/...

# Parallel-engine race pass: the shard barrier/horizon/handoff protocol
# (internal/sim/shard) plus the harness's sharded determinism suite,
# which exercises cross-shard flow starts and fault injection, plus the
# live board fed from two engine goroutines, under -race. Every plane
# recycles frames through its engine's free list and a frame crossing
# the cut is returned on the receiving goroutine, so the sharded goldens
# and TestShardedAllocBudget ('Sharded' matches both) are the race proof
# for the packet pools, and — a cross-plane flow's two halves start on two
# goroutines — for the scheme halves. TestEach is the worker pool every
# sweep, soak and farm run shares. The observers' budget,
# TestObservedAllocBudget (bytes per probe tick × source with every
# observer on), needs one engine and runs with the rest of `make check`,
# as TestEventsPerHopBudget does.
race-shard:
	$(GO) test -race ./internal/sim/shard/
	$(GO) test -race -run 'Sharded|TestProfileDigestIdentical|TestEach' ./internal/harness/

check: fmt vet build race

# The façade's examples, pinned: each builds and runs, and its stdout
# must equal the checked-in examples/<name>/output.txt. Four drive a
# Testbed and gradual runs ten small Clos scenarios (~7 s), so a change
# beneath the façade that moves one printed number fails here, naming
# the example with a diff (< checked in, > now).
EXAMPLES = quickstart coexistence faulttolerance incast gradual
examples-check:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	 for e in $(EXAMPLES); do $(GO) build -o "$$bin/$$e" ./examples/$$e && "$$bin/$$e" > "$$bin/$$e.txt" || exit 1; \
	   diff examples/$$e/output.txt "$$bin/$$e.txt" || { echo "examples-check: examples/$$e differs"; exit 1; }; done && \
	 echo "examples-check: $(words $(EXAMPLES)) examples print their checked-in output"

# Every figure is a farm sweep: a checked-in spec under ci/figures/ (the
# ablations are two specs under one sweep name; Fig 7(c) is a point of
# fig9), and its CSV in results/ is one lake query over the lake the
# specs ran into — FIG_<csv> below is that query. A seed axis grouped
# without `seed` is a mean over seeds. The testbed figures (Figs 1, 7,
# 8, 9) replay the flow lists under ci/figures/testbed/; a throughput
# figure is one run's counter series in 1 ms windows (-series).
FIG_AGG = p99_small_us,avg_fct_us,p99_small_legacy_us,p99_small_new_us,std_small_legacy_us,std_small_new_us,reorder_kb,redundant_frac,timeouts,flows,completed
FIG_SUB = Proactive=transport/flexpass:rx_bytes_pro,Reactive=transport/flexpass:rx_bytes_re
FIG_fig1a       = -where sweep=fig1a -series ExpressPass=transport/expresspass:rx_bytes,DCTCP=transport/dctcp:rx_bytes
FIG_fig1b       = -where sweep=fig1b -series HOMA=transport/homa:rx_bytes,DCTCP=transport/dctcp:rx_bytes
FIG_fig7a       = -where sweep=fig7,workload=fig7a -series $(FIG_SUB)
FIG_fig7b       = -where sweep=fig7,workload=fig7b -series $(FIG_SUB),Flow1=port/h0:nic:tx_bytes,Flow2=port/h1:nic:tx_bytes
FIG_fig7c       = -where sweep=fig9,scheme=flexpass -series DCTCP=transport/dctcp:rx_bytes,$(FIG_SUB)
FIG_fig8        = -where sweep=fig8 -group-by flows,scheme -agg fct_max_us:max,timeouts:sum
FIG_fig9a       = -where sweep=fig9,scheme=naive -series ExpressPass=transport/expresspass:rx_bytes,DCTCP=transport/dctcp:rx_bytes
FIG_fig9b       = -where sweep=fig9,scheme=flexpass -series FlexPass=transport/flexpass:rx_bytes,DCTCP=transport/dctcp:rx_bytes
FIG_fig9c       = -where sweep=fig9 -group-by scheme -agg legacy_starved_frac
FIG_fig5a       = -where sweep=fig5a -group-by scheme,deployment -agg $(FIG_AGG)
FIG_fig5b       = -where sweep=fig5b -group-by scheme,deployment -agg $(FIG_AGG)
FIG_fig10_12_13 = -where sweep=fig10 -group-by scheme,deployment -agg $(FIG_AGG),q1_avg_b,q1_p90_b,q1_red_avg_b,q1_red_p90_b
FIG_fig11       = -where sweep=fig11 -group-by scheme,deployment -agg $(FIG_AGG)
FIG_fig14       = -where sweep=fig14 -group-by scheme,load,deployment -agg $(FIG_AGG)
FIG_fig15_16    = -where sweep=fig15 -group-by workload,scheme,deployment -agg $(FIG_AGG)
FIG_fig17       = -where sweep=fig17 -group-by red_kb -agg p99_small_us,avg_fct_us,q1_avg_b,q1_p90_b
FIG_fig18       = -where sweep=fig18 -group-by wq,deployment -agg p99_small_us,p99_small_legacy_us
FIG_ablations   = -where sweep=ablations -group-by scheme,options -agg p99_small_us,avg_fct_us,reorder_kb,timeouts,redundant_frac

# fig-csvs LAKE=<dir> OUT=<dir> [SPECS=<globs>] [CSVS=<names>], the step
# behind figs, figs-check and figs-paper, runs each spec into a lake of
# its own under LAKE (a sweep re-indexes every run in its lake, so one
# shared lake would decode each earlier sweep's artifacts again), indexes
# them all into LAKE, and writes one CSV per query into OUT.
SPECS = ci/figures/*.json
CSVS  = fig1a fig1b fig7a fig7b fig7c fig8 fig9a fig9b fig9c fig5a fig5b fig10_12_13 fig11 fig14 fig15_16 fig17 fig18 ablations
fig-csvs:
	@test -n "$(LAKE)" -a -n "$(OUT)" || { echo "fig-csvs: set LAKE= and OUT="; exit 1; }
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && $(GO) build -o "$$bin/" ./cmd/flexfarm && mkdir -p "$(OUT)" && \
	 for s in $(SPECS); do "$$bin/flexfarm" run -spec "$$s" -out "$(LAKE)/$$(basename "$$s" .json)" -summary-every 0 || exit 1; done && \
	 "$$bin/flexfarm" ingest -lake "$(LAKE)" "$(LAKE)"/*/runs && \
	 $(foreach f,$(CSVS),"$$bin/flexfarm" query -lake "$(LAKE)" -csv $(FIG_$(f)) > "$(OUT)/$(f).csv" &&) true

# Regenerate all 18 results/*.csv. A point resumes by scenario hash, not
# by revision, so the sweeps run into a fresh temp lake: a reused one
# would serve runs from older code.
figs:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && $(MAKE) --no-print-directory fig-csvs LAKE="$$tmp" OUT=results

# The figure oracle: `make figs` into a temp directory must reproduce
# every checked-in results/*.csv byte for byte. A sampler, transport,
# runner, farm or lake change that moves one cell fails here, naming each
# CSV that differs with a diff of its first differing lines — the list a
# re-pin commit records.
figs-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	 $(MAKE) --no-print-directory fig-csvs LAKE="$$tmp/lake" OUT="$$tmp/out" && \
	 n=0 && bad=0 && for want in results/*.csv; do n=$$((n+1)); got="$$tmp/out/$$(basename "$$want")"; \
	   cmp -s "$$want" "$$got" || { bad=$$((bad+1)); echo "figs-check: $$want differs (< checked in, > regenerated):"; diff "$$want" "$$got" | head -n 12; }; done && \
	 if [ $$bad -ne 0 ]; then echo "figs-check: $$bad of $$n CSVs differ"; exit 1; fi && \
	 test $$n -eq 18 -a $$(ls "$$tmp"/out/*.csv | wc -l) -eq 18 && echo "figs-check: $$n CSVs byte-identical to results/"

# Figs 10 and 11 at the paper's scale: the 192-host fabric, 50 ms of
# arrivals, 100 ms of drain, three seeds (hours of CPU; not a CI gate),
# into results_paper/. lake-paper/ is kept so an interrupted run
# resumes — delete it after changing the code.
figs-paper:
	$(MAKE) --no-print-directory fig-csvs LAKE=lake-paper OUT=results_paper SPECS='ci/figures/paper/*.json' CSVS='fig10_12_13 fig11'

# Scheduler-only microbenchmarks: BenchmarkEventChurn reports events/sec.
bench-sim:
	$(GO) test -bench . -benchtime 2s -run '^$$' ./internal/sim/

# Hot-path benchmark set: scheduler dispatch/churn/cancellation plus the
# netem per-hop costs (BenchmarkHostHop matches both the Network and the
# HandWired variant; BenchmarkPortQueued is a hop through a standing
# queue, BenchmarkPortForward an uncongested one), and the fabric build
# (BenchmarkClosBuild: the paper Clos on one engine, BigClos on two), its
# set-up (BenchmarkRegister: every telemetry source of the paper Clos at
# one and two planes; BenchmarkApply: one burst@* fault on all its ports,
# the engine's event storage included) and per-flow cost (BenchmarkFlowStart, one 8 kB flow per op and transport;
# a fixed op count, since every flow stays in its session's table), for
# a quick look while working. The standing
# benchmark's ledger below measures the same layers (sim.dispatch_ns,
# netem.port_hop_ns, shard.speedup on big-sharded) in a comparable,
# checked-in shape.
HOT_SIM   = BenchmarkEngineDispatch|BenchmarkEventChurn|BenchmarkTimerStopPending
HOT_NETEM = BenchmarkPortForward|BenchmarkPortQueued|BenchmarkHostHop
HOT_TOPO  = BenchmarkClosBuild
HOT_SETUP = BenchmarkRegister|BenchmarkApply
HOT_FLOW  = BenchmarkFlowStart

bench-hot:
	@$(GO) test -bench '$(HOT_SIM)' -benchmem -benchtime 1s -run '^$$' ./internal/sim/
	@$(GO) test -bench '$(HOT_NETEM)' -benchmem -benchtime 1s -run '^$$' ./internal/netem/
	@$(GO) test -bench '$(HOT_TOPO)' -benchmem -benchtime 1s -run '^$$' ./internal/topo/
	@$(GO) test -bench '$(HOT_SETUP)' -benchmem -benchtime 200x -run '^$$' ./internal/netem/ ./internal/faults/
	@$(GO) test -bench '$(HOT_FLOW)' -benchmem -benchtime 5000x -run '^$$' ./internal/harness/

# The standing benchmark's ledger (bench/README.md): every workload's
# end-to-end metrics plus the traced pass's per-layer metrics, one side
# only, in the shape `flexfarm bench` reads. A speed claim is not two
# ledgers but a bench-pair report (below).
BENCH_LEDGER ?= bench-ledger.json

bench-ledger:
	$(GO) run ./bench -trace 1 -ledger $(BENCH_LEDGER)
	@echo wrote $(BENCH_LEDGER)

# A speed or memory claim, as one command: bench-pair BASE=<rev>
# [PAIRS=10] [WORKLOAD=<name>] [SEED=1] builds ./bench at BASE (a git
# worktree under .bench_build/) and in the working tree, runs PAIRS
# alternating pairs, and writes bench-pair.json: per workload, for each
# end-to-end metric and for wall_s, both sides' median and quartiles,
# the change's wins, whether the gain meets the claim rule (claimable)
# and whether the change is worse than BENCHMARK.json's bound
# (regressed; wall_s has no bound and never is). It is checked
# in as BENCH_PR<N>.json; `flexfarm bench BENCH_PR*.json` lists them all.
PAIRS ?= 10
SEED  ?= 1
bench-pair:
	@test -n "$(BASE)" || { echo "bench-pair: set BASE=<rev>"; exit 1; }
	$(GO) run ./ci/benchpair -base '$(BASE)' -pairs $(PAIRS) -workload '$(WORKLOAD)' -seed $(SEED) -out bench-pair.json

# Non-test Go lines per package, bench/ excluded: the measure behind the
# ROADMAP aim "net non-test LoC goes down".
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' \
	 | xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1; t += $$1 } \
	   END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# Cross-run regression gate over the result lake. lake-regression runs
# the fixed-seed CI micro-sweep into lake-ci/ and diffs its index
# against the checked-in baseline: the simulator is deterministic, so
# the diff runs at zero tolerance and any drift in any numeric lake
# column fails the target (the perf self-reports wall_ms and
# events_per_sec are informational only). The diff's report is also
# written to lake-ci/diff.txt, so a DRIFT names its columns in CI's
# artifacts. Re-baseline with lake-baseline after an intentional
# behavior change and commit ci/lake-baseline.json: lake-baseline
# prints the diff it is about to accept (it never fails on drift), so
# the re-pin commit can record which columns moved. The sweep indexes
# the runs it holds in memory; the cmp step re-indexes runs/ from disk
# with `flexfarm ingest` and requires the same bytes.
lake-regression:
	rm -rf lake-ci
	$(GO) run ./cmd/flexfarm run -spec ci/microsweep.json -out lake-ci
	cp lake-ci/index.json lake-ci/index.sweep.json
	$(GO) run ./cmd/flexfarm ingest -lake lake-ci
	cmp lake-ci/index.sweep.json lake-ci/index.json
	$(GO) run ./cmd/flexfarm diff ci/lake-baseline.json lake-ci > lake-ci/diff.txt; \
	 status=$$?; cat lake-ci/diff.txt; exit $$status

lake-baseline:
	rm -rf lake-ci
	$(GO) run ./cmd/flexfarm run -spec ci/microsweep.json -out lake-ci
	-$(GO) run ./cmd/flexfarm diff ci/lake-baseline.json lake-ci
	cp lake-ci/index.json ci/lake-baseline.json
	@echo wrote ci/lake-baseline.json

# Fixed-seed chaos soak: 150 randomized fault/scenario trials on the
# tiny fabric with the forensics auditors promoted to hard oracles
# (invariant violations, non-completing flows, and stray-packet surges
# all fail the trial). The seed is pinned, so the job is deterministic;
# a failing trial leaves chaos-ci/repro-<N>.json, which CI uploads and
# `flexsim -fault chaos-ci/repro-<N>.json` replays exactly (exit 1 while
# the failure reproduces). The trial list is pinned as well: the target
# fails when the digest the run prints is not CHAOS_DIGEST, which a
# change to the generator or to ci/chaos-smoke.json re-pins here.
CHAOS_DIGEST = 0c3a87c5657548d6
chaos-smoke:
	rm -rf chaos-ci && mkdir chaos-ci
	{ $(GO) run ./cmd/flexfarm chaos run -spec ci/chaos-smoke.json -out chaos-ci -shrink 2>&1; echo $$? >chaos-ci/status; } | tee chaos-ci/run.log
	@grep -qF 'digest $(CHAOS_DIGEST))' chaos-ci/run.log || { echo "chaos-smoke: trial digest is not the pinned $(CHAOS_DIGEST)" >&2; exit 1; }
	@exit $$(cat chaos-ci/status)

# End-to-end smoke of the runtime introspection plane: the micro-sweep
# served live (/status polled to completion, /metrics format-checked)
# plus an engine self-profile written as folded stacks.
introspection-smoke:
	bash ci/introspection-smoke.sh

# 64-scenario example sweep on the tiny fabric: resumable (re-run the
# target after an interrupt and it picks up where it left off), then a
# paper-figure style query over the lake it built.
sweep-demo:
	$(GO) run ./cmd/flexfarm run -spec examples/sweeps/scaling.json -out results_sweep
	$(GO) run ./cmd/flexfarm query -lake results_sweep \
	  -where fault_sig= -group-by scheme,load -agg fct_p99_us:mean,goodput_gbps:mean,count

# Plan-driven workload demo: runs the flash-crowd example plan (Poisson
# background with a 2.5x flash window plus ON/OFF bursts) and then the
# multi-tenant RPC mix, whose artifact lands per-tenant and coflow
# counters (workload/tenant/*, workload/coflow cct_us) in run.jsonl.
# -workload takes a sweep's workload entry, so the flash crowd's flow
# list dumped as a trace replays as one (flash-crowd.csv, a trace plan
# named like the plan; its arrival times are rounded to the ns, so the
# replay is a different run). A trace already rounded comes back exact:
# the replay, dumped again, must be the same file byte for byte.
workload-demo:
	$(GO) run ./cmd/flexsim -workload examples/workloads/flash-crowd.json -duration 5
	$(GO) run ./cmd/flexsim -workload examples/workloads/tenant-classes.json -duration 5 -telemetry-out run.jsonl
	@echo "per-tenant and coflow counters:" && grep -h '"workload/' run.jsonl | head -12
	$(GO) run ./cmd/flexsim -workload examples/workloads/flash-crowd.json -duration 5 -dump-trace flash-crowd.csv
	$(GO) run ./cmd/flexsim -workload flash-crowd.csv -duration 5
	$(GO) run ./cmd/flexsim -workload flash-crowd.csv -duration 5 -dump-trace flash-crowd-replay.csv
	cmp flash-crowd.csv flash-crowd-replay.csv

# Observation-only flow forensics on an incast run: records hop-by-hop
# packet events, runs the invariant auditors (credit conservation,
# shared-buffer accounting, starvation — a healthy run reports zero
# violations), lists the worst-slowdown flow timelines, and renders
# flow 1's (forced by -trace-flow) as one chronology.
forensics-demo:
	$(GO) run ./cmd/flexsim -incast 0.1 -duration 2 -trace-flow 1 -forensics-out forensics.jsonl
	$(GO) run ./cmd/flexplot timeline forensics.jsonl
	$(GO) run ./cmd/flexplot timeline -flow 1 forensics.jsonl

# Scripted fault injection as a sweep: the four deployment schemes, each
# clean and under the sample flap+burst plan (a fault axis of "" and the
# plan), then the degradation report — goodput, tail FCT, injected drops
# and the last completion per scheme and fault — as one query.
faults-demo:
	$(GO) run ./cmd/flexfarm run -spec examples/sweeps/degradation.json -out results_faults
	$(GO) run ./cmd/flexfarm query -lake results_faults -group-by scheme,fault \
	  -agg goodput_gbps,fct_p99_us,completed,flows,timeouts,fault_drops,last_finish_us

clean:
	rm -f cpu.prof mem.prof run.jsonl forensics.jsonl flash-crowd.csv flash-crowd-replay.csv bench-ledger.json

# Remove regenerated sweep/lake outputs. The checked-in results/ CSVs
# are the figures and stay.
clean-results:
	rm -rf lake-ci results_sweep results_faults chaos-ci lake-fig10 fig10.json lake-paper results_paper
