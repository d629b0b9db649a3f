package cluster

import "fmt"

// Life is the lifecycle state of a pooled protocol header (dsm's pmsg,
// lrc-mw's mwmsg). A pooled header walks Owned → Sent → (taken by its
// handler: Owned → ...) → Free, under one ownership rule on clean and
// faulty runs alike: the owner sends it once or releases it; a sent
// header belongs to the network, which releases it when its envelope
// dies (fastmsg.Network.SetRelease) unless a handler took it
// (fastmsg.Message.Take). The checks run on every run, so a double
// release or a send after release panics at the spot instead of
// aliasing a live message. Literal headers — shared markers, request
// templates, unpooled control records — keep the zero value and are
// never checked. what names the header's message type in panics.
type Life uint8

const (
	Literal Life = iota // unpooled: never checked, never recycled
	Owned               // held by protocol code: send it once or release it
	Sent                // in flight: the network owns it until a handler takes it
	Free                // parked in a freelist; any use is a lifecycle bug
)

// Send moves an owned header to the network.
func (l *Life) Send(what fmt.Stringer) {
	switch *l {
	case Free:
		panic(fmt.Sprintf("cluster: send of a released %v header", what))
	case Sent:
		panic(fmt.Sprintf("cluster: %v header sent twice — pooled headers are single-send", what))
	case Owned:
		*l = Sent
	}
}

// Take claims a delivered header for the handler that keeps it.
func (l *Life) Take() {
	if *l == Sent {
		*l = Owned
	}
}

// Release checks a protocol-side free — of a header never sent, or one a
// handler took — and reports whether the header is pooled (false for
// literals, which the caller leaves alone).
func (l *Life) Release(what fmt.Stringer) bool {
	switch *l {
	case Literal:
		return false
	case Free:
		panic(fmt.Sprintf("cluster: double release of a pooled %v header", what))
	case Sent:
		panic(fmt.Sprintf("cluster: release of a %v header the network still owns (take it first)", what))
	}
	return true
}

// NetRelease checks the network's free of a dead envelope's header and
// reports whether the header is pooled.
func (l *Life) NetRelease(what fmt.Stringer) bool {
	switch *l {
	case Literal:
		return false
	case Sent:
		return true
	}
	panic(fmt.Sprintf("cluster: network release of a %v header it does not own (double release?)", what))
}
