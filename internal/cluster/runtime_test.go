package cluster

import (
	"strings"
	"testing"

	"millipage/internal/fastmsg"
	"millipage/internal/sim"
	"millipage/internal/vm"
)

// nopHandler is the minimal protocol: no faults, no messages.
type nopHandler struct{}

func (nopHandler) HandleFault(ctx any, f vm.Fault) error          { return nil }
func (nopHandler) HandleMessage(p *sim.Proc, fm *fastmsg.Message) {}
func (nopHandler) DescribeMsg(payload any) (uint16, int, uint64, int) {
	return 0, -1, 0, -1
}

func newTestRuntime(hosts, threadsPerHost int) *Runtime {
	rt := New(Config{Name: "test", Hosts: hosts, ThreadsPerHost: threadsPerHost})
	for i := 0; i < hosts; i++ {
		rt.NewHost(vm.NewAddressSpace(), nopHandler{})
	}
	return rt
}

func TestRunThreadLifecycle(t *testing.T) {
	rt := newTestRuntime(2, 2)
	err := rt.Run(func(ct *Thread) func() {
		return func() {
			ct.Compute(sim.Duration(ct.ID+1) * sim.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ths := rt.Threads()
	if len(ths) != 4 || rt.TotalThreads() != 4 {
		t.Fatalf("threads = %d (total %d), want 4", len(ths), rt.TotalThreads())
	}
	// Global ids in spawn order, local ids per host, hosts in id order.
	wantHost := []int{0, 0, 1, 1}
	wantLID := []int{0, 1, 0, 1}
	for i, th := range ths {
		if th.ID != i || th.Host() != wantHost[i] || th.LID != wantLID[i] {
			t.Fatalf("thread %d: ID=%d host=%d LID=%d, want %d/%d/%d",
				i, th.ID, th.Host(), th.LID, i, wantHost[i], wantLID[i])
		}
		want := sim.Duration(i+1) * sim.Millisecond
		if th.Stats.ComputeTime != want || th.Stats.Total() != want {
			t.Fatalf("thread %d: compute=%v total=%v, want %v",
				i, th.Stats.ComputeTime, th.Stats.Total(), want)
		}
	}
	// The run lasts as long as the slowest thread.
	if rt.Elapsed() != 4*sim.Millisecond {
		t.Fatalf("Elapsed = %v, want 4ms", rt.Elapsed())
	}
}

func TestRunGuards(t *testing.T) {
	rt := newTestRuntime(1, 1)
	if err := rt.Run(nil); err == nil || !strings.Contains(err.Error(), "test: nil thread body") {
		t.Fatalf("Run(nil) = %v, want nil-thread-body error", err)
	}
	mk := func(ct *Thread) func() { return func() {} }
	if err := rt.Run(mk); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(mk); err == nil || !strings.Contains(err.Error(), "Run called twice") {
		t.Fatalf("second Run = %v, want run-twice error", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	rt := New(Config{})
	cfg := rt.Cfg
	if cfg.Name != "cluster" || cfg.Hosts != 1 || cfg.ThreadsPerHost != 1 || cfg.Seed != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Costs == (Costs{}) || cfg.Net == (fastmsg.Params{}) {
		t.Fatal("zero cost/net tables not defaulted")
	}
}

// countResender counts BlockRetry re-sends.
type countResender struct{ n int }

func (r *countResender) Resend(p *sim.Proc) { r.n++ }

func setEvent(a any) { a.(*sim.Event).Set() }

// TestBlockRetryAllocFree pins BlockRetry's steady state: once the
// thread's retry freelist is warm, a retried transaction — registration,
// every backoff timer, the end of its timer chain — allocates nothing,
// and a chain outliving its transaction never re-sends for the next one.
func TestBlockRetryAllocFree(t *testing.T) {
	run := func(n int) (allocs float64, resends int) {
		allocs = testing.AllocsPerRun(5, func() {
			rt := newTestRuntime(1, 1)
			r := &countResender{}
			if err := rt.Run(func(ct *Thread) func() {
				return func() {
					for i := 0; i < n; i++ {
						// Woken at 25ms: the chain re-sends at 10ms, and its
						// next timer (30ms) fires into the next transaction.
						fw := ct.WaitSlot()
						ct.h.sh.AfterArg(25*sim.Millisecond, setEvent, fw.Ev)
						ct.BlockRetry(fw, 10*sim.Millisecond, r)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			resends = r.n
		})
		return allocs, resends
	}
	small, _ := run(100)
	large, resends := run(2100)
	if resends != 2100 {
		t.Fatalf("%d re-sends for 2100 transactions, want one each", resends)
	}
	// AllocsPerRun counts the whole process's mallocs, so a stray runtime
	// allocation can land in one run; one object per transaction would
	// add 2000.
	if extra := large - small; extra > 2 {
		t.Fatalf("2000 more retried transactions allocate %.0f more objects, want 0", extra)
	}
}
