package sim

import "testing"

// BenchmarkEventDispatch measures raw calendar throughput: schedule and
// fire engine callbacks.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Spawn("driver", func(p *Proc) {
		for n < b.N {
			p.Sleep(1000)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessSwitch measures one Sleep of a lone process: always
// the Sleep fast path, so no process switch happens (BenchmarkQueueHandoff
// measures real switches).
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueHandoff measures producer->consumer rendezvous.
func BenchmarkQueueHandoff(b *testing.B) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
