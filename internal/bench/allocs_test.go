package bench

import (
	"encoding/json"
	"os"
	"testing"

	"millipage/internal/apps"
)

// TestMsgHopAllocFree pins the clean message path's steady state: with
// pooled envelopes and tracing off, a full one-hop send/deliver/handle
// cycle performs zero heap allocations per message. It reuses the
// perfbench workload so the regression test and the recorded benchmark
// measure exactly the same path.
func TestMsgHopAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	r := testing.Benchmark(benchMsgHop)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Fatalf("message hop allocates %d objects/op in steady state, want 0", allocs)
	}
}

// checkAllocsPin runs bench and fails if its allocs/op exceed twice the
// value pinned for row name in BENCH_sim.json at the repo root.
// Allocation counts are deterministic enough for a 2x fence (unlike
// wall-clock time, which shared CI boxes make unpinnable).
func checkAllocsPin(t *testing.T, name string, bench func(b *testing.B)) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	blob, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Skipf("no pinned report: %v", err)
	}
	var report struct {
		Benchmarks []PerfPoint `json:"benchmarks"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	var pinned int64
	for _, p := range report.Benchmarks {
		if p.Name == name {
			pinned = p.AllocsPerOp
		}
	}
	if pinned <= 0 {
		t.Fatalf("BENCH_sim.json has no %s allocs/op pin", name)
	}
	r := testing.Benchmark(bench)
	if got := r.AllocsPerOp(); got > 2*pinned {
		t.Fatalf("%s allocates %d objects/op, more than 2x the pinned %d", name, got, pinned)
	}
}

// TestE2ESOR8AllocsRegression is the allocation gate on the end-to-end
// acceptance workload, E2ESOR8: it catches a pooling regression — a
// leaked fast path, a pool gated off, per-message garbage reintroduced —
// before it shows up as a slow simulator.
func TestE2ESOR8AllocsRegression(t *testing.T) {
	checkAllocsPin(t, "E2ESOR8", benchE2ESOR8)
}

// TestE2ESOR8EngineCounts pins the event engine's deterministic work
// counters on the E2ESOR8 workload, on both engines (the parallel one at
// two worker widths, which must agree). Unlike wall-clock time these are
// exact: a change to how processes switch must leave them untouched, and
// a change that makes the simulator dispatch more events or switch more
// often than before shows here as a number, not a timing.
func TestE2ESOR8EngineCounts(t *testing.T) {
	for _, tc := range []struct {
		engine           string
		workers          int
		events, switches uint64
	}{
		{"seq", 0, 89909, 52379},
		{"par", 1, 102238, 69592},
		{"par", 2, 102238, 69592},
	} {
		r, err := apps.RunSOR(apps.Params{Hosts: 8, Scale: 0.1, Seed: 1, Engine: tc.engine, ParWorkers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if r.Engine.Events != tc.events || r.Engine.Switches != tc.switches {
			t.Errorf("%s engine, %d workers: events=%d switches=%d, want %d and %d",
				tc.engine, tc.workers, r.Engine.Events, r.Engine.Switches, tc.events, tc.switches)
		}
	}
}

// TestE2ESOR64ParAllocsRegression extends the allocation gate to the
// parallel engine's steady state, against the ParSpeedup row. The
// sharded path has its own ways to regress that the sequential workload
// never exercises: goroutines spawned per window instead of pooled, a
// sorting closure or reflect swapper on the merge barrier, outbox
// capacity dropped instead of recycled — each one multiplies by the
// tens of thousands of windows in a run.
func TestE2ESOR64ParAllocsRegression(t *testing.T) {
	checkAllocsPin(t, "ParSpeedup", benchE2ESOR64Par)
}

// TestE2EServeAllocsRegression gates the serving path's steady state
// against the E2EServe8 row. The pin is setup-dominated (~1.2k
// allocations for a 20k-op scenario), so per-op garbage on the GET/PUT
// hot loop — a boxed histogram add, an interface escape in the
// generator, a per-response oracle allocation — multiplies past the
// fence immediately.
func TestE2EServeAllocsRegression(t *testing.T) {
	checkAllocsPin(t, "E2EServe8", benchE2EServe8)
}

// TestE2EServeDropHeavyAllocsRegression is the faulty-path gate, against
// the E2EServeDropHeavy row: the same serving harness under a quarter of
// frames dropped and 15% duplicated. Its pin is setup-dominated too, so
// a fault path that stops recycling — a header or snapshot allocated per
// retransmitted step, a closure per retry timer — blows through it.
func TestE2EServeDropHeavyAllocsRegression(t *testing.T) {
	checkAllocsPin(t, "E2EServeDropHeavy", benchE2EServeDropHeavy)
}
