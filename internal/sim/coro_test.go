package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines waits briefly for goroutine exits still in flight
// (the parallel engine's pool workers leave asynchronously after Run)
// and returns the count once it is at most want or the wait runs out.
// Callers fail only on a count above want: goroutines of earlier tests
// may finish during the run and bring it below.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunReleasesProcesses: whatever state a run leaves its processes
// in — abandoned daemons, a process spawned but never started, blocked
// processes after a deadlock or after Stop — Run returns with every
// process coroutine gone, and the deferred calls of every parked
// process have run.
func TestRunReleasesProcesses(t *testing.T) {
	// wantDeferred counts the deferred calls of parked processes: two
	// daemons, three deadlocked processes, the blocked process plus the
	// stopper (the never-started process has no frame to unwind).
	cases := []struct {
		name         string
		build        func(e *Engine, deferred *int)
		wantErr      bool
		wantDeferred int
	}{
		{"abandoned-daemons", func(e *Engine, deferred *int) {
			idle := NewSignal(e)
			e.SpawnDaemon("waiter", func(p *Proc) {
				defer func() { *deferred++ }()
				idle.Wait(p)
			})
			e.SpawnDaemon("ticker", func(p *Proc) {
				defer func() { *deferred++ }()
				for {
					p.Sleep(Microsecond)
				}
			})
			e.Spawn("main", func(p *Proc) { p.Sleep(10 * Microsecond) })
		}, false, 2},
		{"deadlock", func(e *Engine, deferred *int) {
			never := NewSignal(e)
			for i := 0; i < 3; i++ {
				e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
					defer func() { *deferred++ }()
					never.Wait(p)
				})
			}
		}, true, 3},
		{"stop", func(e *Engine, deferred *int) {
			never := NewSignal(e)
			e.Spawn("blocked", func(p *Proc) {
				defer func() { *deferred++ }()
				never.Wait(p)
			})
			e.Spawn("stopper", func(p *Proc) {
				defer func() { *deferred++ }()
				p.Sleep(Microsecond)
				e.Spawn("never-started", func(*Proc) { t.Error("a process spawned after Stop ran") })
				e.Stop()
				p.Sleep(Microsecond)
				t.Error("stopper resumed after Stop")
			})
		}, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine(1)
			deferred := 0
			tc.build(e, &deferred)
			err := e.Run()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Run = %v, want error %v", err, tc.wantErr)
			}
			if deferred != tc.wantDeferred {
				t.Errorf("%d deferred calls of parked processes ran, want %d", deferred, tc.wantDeferred)
			}
			if n := settledGoroutines(before); n > before {
				t.Errorf("%d goroutines after Run, %d before", n, before)
			}
		})
	}
}

// TestShardedRunReleasesProcesses: the same teardown on a sharded
// engine whose windows run on the worker pool — daemons ticking on
// every shard are abandoned mid-window rhythm, and after Run neither
// they nor the pool's workers remain.
func TestShardedRunReleasesProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewShardedEngine(1, 3)
	e.SetLookahead(Microsecond)
	e.SetParWorkers(2)
	unwound := 0
	for i := 0; i < e.NumShards(); i++ {
		e.Shard(i).SpawnDaemon(fmt.Sprintf("ticker%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			for {
				p.Sleep(Microsecond / 2)
			}
		})
	}
	e.Spawn("main", func(p *Proc) { p.Sleep(20 * Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if unwound != e.NumShards() {
		t.Errorf("%d daemons unwound, want %d", unwound, e.NumShards())
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}

// TestReapedProcessDispatchesNothing: simulation calls in the deferred
// code of a process unwound after Run neither resume it nor fire
// pending events — the run is over.
func TestReapedProcessDispatchesNothing(t *testing.T) {
	e := NewEngine(1)
	late := false
	e.SpawnDaemon("daemon", func(p *Proc) {
		defer func() {
			e.After(0, func() { late = true })
			p.Sleep(Microsecond)
			t.Error("a reaped process resumed from its deferred code")
		}()
		for {
			p.Sleep(Microsecond)
		}
	})
	e.After(10*Microsecond, func() { late = true })
	e.Spawn("main", func(p *Proc) { p.Sleep(5 * Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if late {
		t.Error("an engine callback fired after Run returned")
	}
}

// TestProcessPanicLeavesRun: without an explorer, a panic in a process
// body propagates out of Engine.Run on the caller's goroutine, where it
// can be recovered, and the run's other processes are still released.
func TestProcessPanicLeavesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	daemonUnwound := false
	got := func() (r any) {
		defer func() { r = recover() }()
		e := NewEngine(1)
		e.SpawnDaemon("daemon", func(p *Proc) {
			defer func() { daemonUnwound = true }()
			for {
				p.Sleep(Microsecond)
			}
		})
		e.Spawn("faulty", func(p *Proc) {
			p.Sleep(3 * Microsecond)
			panic(boom)
		})
		_ = e.Run()
		return nil
	}()
	if got != boom {
		t.Fatalf("recovered %v around Run, want %v", got, boom)
	}
	if !daemonUnwound {
		t.Error("the parked daemon was not unwound")
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}

// TestSwitchCounters: Events counts dispatched events and Switches only
// the resumes that change the running process. A Sleep that takes the
// fast path is neither; a Sleep whose own resume is the next process
// event after an engine callback is an event but no switch; a
// ping-pong through two Queues costs one switch per hand-over.
func TestSwitchCounters(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() {})
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// start resume, the callback at 5, the sleeper's resume at 10.
	if ev, sw := e.Events(), e.Switches(); ev != 3 || sw != 1 {
		t.Errorf("sleeper: events=%d switches=%d, want 3 and 1", ev, sw)
	}

	const rounds = 100
	e = NewEngine(1)
	there, back := NewQueue[int](e), NewQueue[int](e)
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			there.Put(i)
			back.Get(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			there.Get(p)
			back.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two starts, a's rounds wakes and b's rounds-1 (its first Get finds
	// an item); every resume hands the processor to the other process.
	if ev, sw := e.Events(), e.Switches(); ev != 2*rounds+1 || sw != 2*rounds+1 {
		t.Errorf("ping-pong: events=%d switches=%d, want %d each", ev, sw, 2*rounds+1)
	}
}
