package cluster

import (
	"fmt"
	"strings"
	"testing"
)

type testKind string

func (k testKind) String() string { return string(k) }

// TestLifeTransitions walks a pooled header through every lifecycle
// transition: the legal walk succeeds, and each misuse panics with a
// message naming both the mistake and the header's message type.
func TestLifeTransitions(t *testing.T) {
	const k = testKind("PING")
	var l Life
	if l.Release(k) || l.NetRelease(k) {
		t.Fatal("a literal header reported as pooled")
	}
	l.Send(k) // literals are never checked
	if l != Literal {
		t.Fatalf("literal header moved to %d on send", l)
	}

	// Owned → Sent → taken → Sent (turned around) → released by the network.
	l = Owned
	l.Send(k)
	l.Take()
	l.Send(k)
	if !l.NetRelease(k) {
		t.Fatal("network release of a sent header refused")
	}

	for _, tc := range []struct {
		name  string
		from  Life
		op    func(l *Life)
		panic string
	}{
		{"send after release", Free, func(l *Life) { l.Send(k) }, "send of a released PING header"},
		{"send twice", Sent, func(l *Life) { l.Send(k) }, "PING header sent twice"},
		{"double release", Free, func(l *Life) { l.Release(k) }, "double release of a pooled PING header"},
		{"release while in flight", Sent, func(l *Life) { l.Release(k) }, "release of a PING header the network still owns"},
		{"network release of a free header", Free, func(l *Life) { l.NetRelease(k) }, "network release of a PING header it does not own"},
		{"network release of a taken header", Owned, func(l *Life) { l.NetRelease(k) }, "network release of a PING header it does not own"},
	} {
		l := tc.from
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			tc.op(&l)
			return ""
		}()
		if !strings.Contains(got, tc.panic) {
			t.Errorf("%s: panic %q, want it to mention %q", tc.name, got, tc.panic)
		}
	}
}
