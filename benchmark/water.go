package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"millipage/internal/apps"
)

// runWATER runs apps.RunWATER once. It builds its own cluster and runs
// its own allocation phase, so the host time of both lands in wallS;
// setupS covers only the benchmark's work before the call.
func runWATER(seed int64) (*sample, error) {
	t0 := time.Now()
	runtime.GC()
	p := apps.Params{Protocol: "lrc-mw", Hosts: 8, Seed: seed, Scale: 1.0}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tStart := time.Now()
	r, err := apps.RunWATER(p)
	tEnd := time.Now()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("apps.RunWATER: %w", err)
	}
	res := &sample{
		rep:        r.Report,
		vtime:      int64(r.Timed),
		setupS:     tStart.Sub(t0).Seconds(),
		wallS:      tEnd.Sub(tStart).Seconds(),
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		attempted:  1,
	}
	if !r.Checked {
		res.failed, res.firstViol = 1, "water-mw: application verification failed (Result.Checked false)"
	}
	res.fp = fnvOffset
	for _, v := range [...]uint64{math.Float64bits(r.Check), uint64(r.Timed), uint64(r.Report.Elapsed),
		r.Report.MessagesSent, r.Report.BytesSent, r.Report.ReadFaults, r.Report.WriteFaults,
		r.Report.LockAcquisitions, r.Report.Barriers} {
		res.fp = fpMix(res.fp, v)
	}
	return res, nil
}
