package dsm

import (
	"fmt"
	"strings"
	"testing"

	"millipage/internal/faultnet"
)

// panicText runs f and returns its panic message ("" if it returned).
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestHeaderLifecycleChecker: the pooled-header lifecycle check is armed
// on every run. Releasing a header twice, or sending one after its
// release, panics with a message naming the mistake — on a clean wire
// and under the drop-heavy preset alike, where the same pooled headers
// also ride retransmissions until their frames are acked. The locked
// counter around the misuse proves the protocol's own headers pass the
// checker end to end. (The remaining transitions are covered by
// cluster's TestLifeTransitions.)
func TestHeaderLifecycleChecker(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults *faultnet.Plan
	}{
		{"clean", nil},
		{"drop-heavy", &faultnet.Plan{Seed: 3, Drop: 0.25, Dup: 0.15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const hosts, rounds = 3, 20
			s, err := New(Options{Hosts: hosts, SharedSize: 1 << 12, Seed: 5, Faults: tc.faults})
			if err != nil {
				t.Fatal(err)
			}
			var va uint64
			var double, sendReleased string
			var final uint64
			err = s.Run(func(th *Thread) {
				if th.Host() == 0 {
					va = th.Malloc(64)
				}
				th.Barrier()
				for i := 0; i < rounds; i++ {
					th.Lock(0)
					th.WriteU64(va, th.ReadU64(va)+1)
					th.Unlock(0)
					if th.Host() == 1 && i == rounds/2 {
						h, p := th.host, th.Proc()
						m := h.newPM(pmsg{Type: mAck, From: h.ID()})
						h.releasePM(m)
						double = panicText(func() { h.releasePM(m) })
						sendReleased = panicText(func() { h.Send(p, 0, m) })
					}
				}
				th.Barrier()
				if th.Host() == 0 {
					final = th.ReadU64(va)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ got, want string }{
				{double, "double release of a pooled ACK header"},
				{sendReleased, "send of a released ACK header"},
			} {
				if !strings.Contains(c.got, c.want) {
					t.Errorf("panic %q, want it to mention %q", c.got, c.want)
				}
			}
			if want := uint64(hosts * rounds); final != want {
				t.Fatalf("counter = %d, want %d", final, want)
			}
		})
	}
}
