# Convenience targets for the MPF reproduction.

PY ?= python
# Point-runner processes for figure sweeps; output is byte-identical to
# a serial run (each point is an independent deterministic simulation).
JOBS ?= 4

.PHONY: install test bench shapes figures figures-quick check trace-smoke \
	serve telemetry-smoke telemetry-budget procs-smoke profile \
	identity census hostcost asan tsan mutants clean

install:
	pip install -e '.[dev]' || pip install -e '.[dev]' --no-build-isolation

test:
	$(PY) -m pytest tests/ -q

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

shapes:
	$(PY) -m pytest benchmarks/ --benchmark-disable -q

# Model-check the primitives, row by row from the scenario table
# (repro.check.SCENARIOS: each name and the faults it declares): every
# scenario clean over seeded schedules on the simulator and over repeated
# runs on threads and forked processes (both on ProcSync), and every
# declared fault caught on the simulator, or the target fails.  One row
# more: ring-wrap under exhaustive DFS.  (Select-poll's waits, over
# free-list circuits and in select-poll-ring over ring ones too, and
# free-list receives are sections on every runtime: the engine runs them
# on the simulator, the drives on threads and procs.)  CI's check-smoke
# job runs exactly this target.  See docs/checking.md.
SCENARIO_TABLE = $(PY) -c "from repro.check import SCENARIOS; [print(n, *s.faults) for n, s in SCENARIOS.items()]"
EXPLORE = $(PY) -m repro.check explore
check:
	@run() { echo "$$*"; "$$@"; }; \
	table=$$($(SCENARIO_TABLE)) && [ -n "$$table" ] || exit 1; \
	echo "$$table" | while read name faults; do \
	  for how in "--seeds 200" "--runtime threads --repeats 10" \
	             "--runtime procs --repeats 10"; do \
	    run $(EXPLORE) --scenario $$name $$how || exit 1; \
	  done; \
	  for fault in $$faults; do \
	    run $(EXPLORE) --scenario $$name --seeds 200 --fault $$fault \
	      --expect-fail || exit 1; \
	  done; \
	done
	$(EXPLORE) --scenario ring-wrap --seeds 200 --policy dfs

# Real-process smoke: both ledger pipes (the benchmark is run, not
# edited) as is and confined to one CPU — spin-then-park must stay
# correct with fewer CPUs than processes — each failing unless its last
# line says "correct": true; then the ring-wrap scenario on forked
# processes.  See docs/performance.md, "Real-process synchronization".
LEDGER = $(PY) benchmarks/ledger/run.py --quick --workload
CORRECT = tail -n 1 | grep -q '"correct": true'
procs-smoke:
	$(LEDGER) procs_pipe_ring | $(CORRECT)
	$(LEDGER) procs_pipe_freelist | $(CORRECT)
	taskset -c 0 $(LEDGER) procs_pipe_ring | $(CORRECT)
	taskset -c 0 $(LEDGER) procs_pipe_freelist | $(CORRECT)
	$(PY) -m repro.check explore --scenario ring-wrap --runtime procs --repeats 10

# Causal-tracing smoke: run the fig4 contention sweep with per-message
# tracing in every recording regime (one recorder on sim, the shared
# probe on threads, merged children on procs), fail if the health
# engine prints any finding (fig4 is closed-loop: nothing can back up,
# so a finding is a false positive), then validate the Prometheus
# exposition and the DOT flow graph each exported (per-runtime suffixed
# files): each exposition must carry the timeline's queue-depth peaks,
# the one depth source a run records.  See docs/tracing.md.
trace-smoke:
	$(PY) -m repro.bench trace fig4 --quick --causal \
		--runtime sim --runtime threads --runtime procs \
		--prom /tmp/mpf_fig4.prom --flow /tmp/mpf_fig4.dot \
		> /tmp/mpf_fig4-trace.txt
	cat /tmp/mpf_fig4-trace.txt
	! grep -F '(!)' /tmp/mpf_fig4-trace.txt
	$(PY) -c "\
	from repro.obs import check_dot, parse_exposition; \
	kinds = ('sim', 'threads', 'procs'); \
	proms = [parse_exposition(open(f'/tmp/mpf_fig4-{k}.prom').read()) \
	         for k in kinds]; \
	depth = [sum(lab.get('metric') == 'depth' \
	             for lab, _ in p.get('mpf_timeline_gauge_max', ())) \
	         for p in proms]; \
	assert min(depth) > 0, depth; \
	edges = [check_dot(open(f'/tmp/mpf_fig4-{k}.dot').read()) \
	         for k in kinds]; \
	assert min(edges) > 0, edges; \
	print(f'trace smoke ok: depth series {depth}, flow edges {edges}')"

# Open-loop serving smoke: a CI-sized sweep on the simulator and on
# real threads, then validate the SLO JSON documents and the Prometheus
# exposition of the traced knee point.  See docs/serving.md.
serve:
	$(PY) -m repro.bench serve --quick \
		--json /tmp/mpf_serve_sim.json --prom /tmp/mpf_serve.prom
	$(PY) -m repro.bench serve --quick --runtime threads \
		--loads 60,200 --duration 1.5 --json /tmp/mpf_serve_threads.json
	$(PY) -c "\
	import json; \
	from repro.obs import parse_exposition; \
	from repro.serve import validate_slo; \
	docs = [json.load(open(f'/tmp/mpf_serve_{k}.json')) \
	        for k in ('sim', 'threads')]; \
	[validate_slo(d) for d in docs]; \
	parse_exposition(open('/tmp/mpf_serve.prom').read()); \
	print('serve smoke ok:', \
	      [f'{d[\"runtime\"]}: {d[\"total_mpf_messages\"]} msgs' \
	       for d in docs])"

# Windowed-telemetry smoke: a quick threads serve probe, its archived
# mpf-serve-timeline/1 document re-validated strictly, and the health
# attribution, fault-recall and timeline-document tests.  See
# docs/telemetry.md.
telemetry-smoke:
	$(PY) -m repro.bench serve --quick --runtime threads \
		--loads 60,200 --duration 1.5 \
		--timeline /tmp/mpf_serve-timeline.json
	$(PY) -c "\
	import json; \
	from repro.serve.slo import validate_timeline; \
	doc = json.load(open('/tmp/mpf_serve-timeline.json')); \
	validate_timeline(doc); \
	print('telemetry smoke ok:', \
	      len(doc['timeline']['windows']), 'windows,', \
	      len(doc['findings']), 'finding(s),', \
	      'clock', doc['timeline']['clock'])"
	$(PY) -m pytest tests/obs/test_health.py \
		tests/obs/test_health_recall.py tests/serve/test_timeline_doc.py -q

# Observer wall-overhead budget: the observers must stay observational
# taps — an observed knee probe returns the bare probe's SLO point and
# may not cost integer factors over it.  Each layer (plain recorder,
# causal tracer, timeline) is budgeted on its own as well as all
# together, so a layer that doubles cannot hide in the sum.  The 3x + 1 s
# budget is deliberately generous (hosted runners are noisy): the gate
# catches a hot-path tap turning into real work, not percent-level drift
# (the deterministic answer to that is tests/obs/test_obs_cost.py).
define TELEMETRY_BUDGET
import time
from repro.obs import Recorder
from repro.serve.sweep import run_point
from repro.serve.topology import ServeShape

shape = ServeShape().with_load_features(batch=8)

def wall(observers=dict):
    best = float("inf")
    for _ in range(3):
        kw = observers()  # a fresh recorder per run
        t0 = time.perf_counter()
        point, _ = run_point(shape, 400.0, 800, seed=1987,
                             runtime="sim", **kw)
        best = min(best, time.perf_counter() - t0)
    return best, point

LAYERS = {
    "recorder": lambda: {"recorder": Recorder()},
    "causal": lambda: {"recorder": Recorder(causal=True)},
    "timeline": lambda: {"recorder": Recorder(timeline=True)},
    "causal + timeline": lambda: {
        "recorder": Recorder(causal=True, timeline=True)},
}

bare, p0 = wall()
for layer, observers in LAYERS.items():
    observed, p1 = wall(observers)
    assert p1 == p0, f"{layer} moved the SLO point"
    assert observed < 3 * bare + 1.0, (
        f"{layer} overhead blew the budget: {bare:.2f}s -> {observed:.2f}s")
    print(f"overhead ok: bare {bare:.2f}s, {layer} {observed:.2f}s")
endef
export TELEMETRY_BUDGET
telemetry-budget:
	$(PY) -c "$$TELEMETRY_BUDGET"

figures:
	$(PY) -m repro.bench all --jobs $(JOBS) \
		--json figures_full.json | tee figures_full.txt

figures-quick:
	$(PY) -m repro.bench all --quick --plot

# Re-measure against the committed archive (figures_full.json is reused
# as the reference, not regenerated).
compare:
	$(PY) -m repro.bench all --jobs $(JOBS) \
		--json /tmp/mpf_after.json >/dev/null && \
	$(PY) -m repro.bench.compare figures_full.json /tmp/mpf_after.json

# Byte-identity gate: the full serial sweep must reproduce the committed
# archive exactly (~20 s).  Every change to core/, the engine or a
# runtime runs this.
identity:
	$(PY) -m repro.bench all --json /tmp/mpf_full.json >/dev/null
	cmp /tmp/mpf_full.json figures_full.json

# Parameter census of the simulated machine: every Costs / MachineConfig
# field at x1/2 and x2, each a fresh child process rerunning `bench all
# --quick` (70 runs + the baseline: ~7 min of CPU, 3.6 min wall with
# JOBS=2 on a 2-CPU host), rewrites the table in EXPERIMENTS.md
# deterministically.  CI's census job fails on any diff.
census:
	$(PY) benchmarks/census.py --jobs $(JOBS)

# Host cost of the message path: the deterministic pin table (Python
# and C calls, region accessor calls per loop-back send + receive pair,
# per transport — what tests/core/test_host_cost.py pins), the accessor
# counts per size, and the repro Python calls per simulated event of the
# pinned 32x32 Gauss-Jordan run.  Counts only: a loop-back wall time
# moves 1.5x between two launches of one commit.  See
# docs/performance.md, "Host cost of the message path".
hostcost:
	$(PY) tests/core/test_host_cost.py

# The C kernels and the C engine loop against their Python references
# under AddressSanitizer: the differential property tests (every test
# named `test_c_*` in them) build chains.c and engine.c again with
# -fsanitize=address once they find its runtime in the process
# (tests/conftest.py, the `c_kernels` and `c_engine` fixtures), so a
# kernel that reads or writes outside the region it was handed, or a
# loop that touches an object it no longer holds, fails the run.  Python's own allocator is switched off so that a region's
# bytearray is a heap block of its own size, and leak checking with it
# (the interpreter keeps its heap at exit).
ASAN_ENV = LD_PRELOAD=$$(gcc -print-file-name=libasan.so) \
	PYTHONMALLOC=malloc ASAN_OPTIONS=detect_leaks=0
asan:
	$(ASAN_ENV) $(PY) -c "import ctypes; ctypes.CDLL(None).__asan_init"
	$(ASAN_ENV) $(PY) -m pytest -q -p no:cacheprovider --capture=sys -k test_c_ \
		tests/properties/test_freelist_properties.py \
		tests/properties/test_ring_properties.py \
		tests/properties/test_engine_properties.py \
		tests/properties/test_sync_properties.py

# The lock words and wait bytes of runtime/sync.c under ThreadSanitizer:
# a standalone pthread harness (tests/tsan/sync_harness.c; CPython does
# not load the TSan runtime here) must pass — mutual exclusion by a
# guarded counter, no lost wake within its alarm — and the same harness
# built with a relaxed lock release must be reported as a data race.
TSAN_CC = gcc -std=c99 -O1 -g -Wall -Wextra -fsanitize=thread -pthread
tsan:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(TSAN_CC) -o "$$tmp/ok" tests/tsan/sync_harness.c && \
	"$$tmp/ok" && \
	$(TSAN_CC) -DSYNC_RELEASE_ORDER=__ATOMIC_RELAXED -o "$$tmp/relaxed" \
		tests/tsan/sync_harness.c && \
	if "$$tmp/relaxed" > "$$tmp/relaxed.txt" 2>&1; then \
	  echo "a relaxed lock release went unreported"; exit 1; fi && \
	grep -q "ThreadSanitizer: data race" "$$tmp/relaxed.txt" && \
	echo "tsan ok: the planted relaxed release is reported as a data race"

# The committed mutant list (tests/mutants.json): each entry's exact
# text replaced in a temporary copy of the tree, only its listed tests
# run there, and any mutant they do not kill fails the target.
mutants:
	$(PY) tests/mutants.py

# cProfile one figure plus the hottest-effect-label report (one Recorder
# in SimRuntime.profile; pinned by tests/bench/test_profile_top.py).
FIG ?= fig7
profile:
	$(PY) -m repro.bench profile $(FIG) --quick --top 10

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	       $(shell find . -name __pycache__ -type d 2>/dev/null)
