//go:build go1.23

package sim

import "iter"

// newCoro makes body a runtime coroutine. resume switches the calling
// goroutine straight into body and returns once body calls yield or
// returns — a direct handoff, with no trip through the Go scheduler.
// stop makes a pending yield return false, or, before the first
// resume, retires body without running it. Panics in body propagate
// out of resume.
//
// This file is the simulator's one use of iter.Pull. Its build
// constraint raises its language version to Go 1.23 while go.mod stays
// at go 1.22 (see README, "Install and quick start").
func newCoro(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull[struct{}](body)
}
