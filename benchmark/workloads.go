package main

import "time"

// The KV workload shapes. kv-zipf is the serving subsystem's "million"
// shape on a clean wire; kv-lossy adds writes and a seeded lossy wire.
var (
	zipfShape  = kvShape{hosts: 8, keys: 16_384, buckets: 512, clients: 1_000_000, readFrac: 0.95, zipfS: 0.99}
	lossyShape = kvShape{hosts: 8, keys: 4_096, buckets: 256, clients: 100_000, readFrac: 0.5, zipfS: 0.99, lossy: true}
)

const (
	zipfRate  = 25_000 // nominal rate, ops per virtual second
	zipfOps   = 100_000
	lossyRate = 4_000
	lossyOps  = 40_000

	// The rate ladder: rungs from ladderLo to ladderHi in ladderStep
	// steps, each rung one virtual second of traffic.
	ladderLo, ladderHi, ladderStep = 15_000, 50_000, 5_000

	minReps = 3 // repetitions of one seed, so reproduction is checked
)

// ladder finds the highest rung at which kv-zipf traffic keeps up (see
// kvResult.keepsUp), climbing until the first rung that does not. It
// returns 0 when even the lowest rung fails.
func ladder(seed int64, o *outcome) (float64, error) {
	best := 0.0
	for rate := ladderLo; rate <= ladderHi; rate += ladderStep {
		r, err := runKV(zipfShape, seed, float64(rate), rate, false)
		if err != nil {
			return 0, err
		}
		o.attempted += r.attempted
		if r.failed > 0 {
			o.fail(r.failed, "ladder rung %d ops/s: %s", rate, r.firstViol)
		}
		if !r.keepsUp() {
			break
		}
		best = float64(rate)
	}
	return best, nil
}

func runKVZipf(cfg config) (*outcome, error) {
	o := &outcome{}
	maxRate, err := ladder(cfg.seed, o)
	if err != nil {
		return nil, err
	}
	if err := kvWorkload(cfg, o, zipfShape, zipfRate, zipfOps); err != nil {
		return nil, err
	}
	o.layers = append(o.layers, metric{name: "request.max_rate_ops_s", value: maxRate, unit: "ops/s",
		note: "GET p99 <= 2ms virtual and >= 95% of offered rate"})
	return o, nil
}

func runKVLossy(cfg config) (*outcome, error) {
	o := &outcome{}
	if err := kvWorkload(cfg, o, lossyShape, lossyRate, lossyOps); err != nil {
		return nil, err
	}
	o.layers = append(o.layers, metric{name: "request.max_rate_ops_s", unit: "ops/s", note: "kv-zipf only"})
	return o, nil
}

func runWaterMW(cfg config) (*outcome, error) {
	o := &outcome{}
	err := measure(cfg, o, func(bool) (*sample, error) { return runWATER(cfg.seed) })
	if err != nil {
		return nil, err
	}
	// apps.RunWATER makes its Worker calls itself, so the benchmark has
	// no request or Worker-call spans on this workload: they read 0.
	for _, name := range []string{"get_p50_us", "get_p999_us", "put_p50_us", "put_p99_us", "queue_p50_us", "queue_p99_us", "service_p99_us"} {
		o.layers = append(o.layers, metric{name: "request." + name, unit: "us", note: "kv workloads only"})
	}
	o.layers = append(o.layers, metric{name: "request.max_rate_ops_s", unit: "ops/s", note: "kv-zipf only"})
	if cfg.traced {
		for _, name := range callNames {
			o.layers = append(o.layers,
				metric{name: "millipage." + name + ".calls", unit: "count"},
				metric{name: "millipage." + name + ".p50_us", unit: "us"},
				metric{name: "millipage." + name + ".p99_us", unit: "us"})
		}
		o.layers = append(o.layers,
			metric{name: "millipage.read.hit_ratio", unit: "ratio"},
			metric{name: "millipage.write.hit_ratio", unit: "ratio"},
			metric{name: "millipage.newcluster_s", unit: "s", note: "apps.RunWATER builds its own cluster"})
	}
	return o, nil
}

// kvOnce is one untraced KV repetition.
func kvOnce(sh kvShape, seed int64, rate float64, ops int) (*sample, error) {
	r, err := runKV(sh, seed, rate, ops, false)
	if err != nil {
		return nil, err
	}
	return &r.sample, nil
}

// kvWorkload measures one KV shape at a nominal rate and adds the
// request and Worker-call metrics.
func kvWorkload(cfg config, o *outcome, sh kvShape, rate float64, ops int) error {
	var first, traced *kvResult
	var newCluster []float64
	err := measure(cfg, o, func(tr bool) (*sample, error) {
		r, err := runKV(sh, cfg.seed, rate, ops, tr)
		if err != nil {
			return nil, err
		}
		newCluster = append(newCluster, r.newClusterS)
		if first == nil {
			first = r
		}
		if tr && traced == nil {
			traced = r
		}
		s := r.sample // a copy, so the run's samples and spans can be freed
		return &s, nil
	})
	if err != nil {
		return err
	}
	o.layers.addPct("request.get_p50_us", first.get, 0.50)
	o.layers.addPct("request.get_p999_us", first.get, 0.999)
	o.layers.addPct("request.put_p50_us", first.put, 0.50)
	o.layers.addPct("request.put_p99_us", first.put, 0.99)
	if !cfg.traced {
		return nil
	}
	tr := traced.tr
	o.layers.addPct("request.queue_p50_us", tr.queue, 0.50)
	o.layers.addPct("request.queue_p99_us", tr.queue, 0.99)
	o.layers.addPct("request.service_p99_us", tr.service, 0.99)
	for c, name := range callNames {
		d := tr.calls[c]
		o.layers.add("millipage."+name+".calls", float64(len(d)), "count")
		o.layers.addPct("millipage."+name+".p50_us", d, 0.50)
		o.layers.addPct("millipage."+name+".p99_us", d, 0.99)
		if c == callRead || c == callWrite {
			o.layers.add("millipage."+name+".hit_ratio", d.zeroShare(), "ratio")
		}
	}
	o.layers.add("millipage.newcluster_s", median(newCluster), "s")
	return nil
}

// measure repeats one seed's timed run until the configured time is
// spent, at least minReps times, and checks that every repetition
// reproduces the first. Traced, it spends the first half untraced and
// the second half traced under the CPU profiler; the traced runs must
// reproduce the untraced one too, so tracing costs no virtual time.
func measure(cfg config, o *outcome, run func(traced bool) (*sample, error)) error {
	end := cfg.deadline
	untracedEnd := end
	if cfg.traced {
		untracedEnd = time.Now().Add(time.Until(end) / 2)
	}
	var ss, ts []*sample
	rep := func(traced bool) error {
		s, err := run(traced)
		if err != nil {
			return err
		}
		o.attempted += s.attempted
		if s.failed > 0 {
			o.fail(s.failed, "%s", s.firstViol)
		}
		if len(ss) > 0 {
			o.repeats(ss[0], s)
		}
		if traced {
			ts = append(ts, s)
		} else {
			ss = append(ss, s)
		}
		return nil
	}
	for len(ss) < minReps || time.Now().Before(untracedEnd) {
		if err := rep(false); err != nil {
			return err
		}
	}
	o.hostMetrics(ss)
	o.e2e.add("vtime_ms", float64(ss[0].vtime)/1e6, "ms")
	if cfg.traced {
		var err error
		perr := profiled(cfg, &o.layers, func() int {
			for len(ts) < minReps || time.Now().Before(end) {
				if err = rep(true); err != nil {
					break
				}
			}
			return len(ts)
		})
		if err != nil {
			return err
		}
		if perr != nil {
			return perr
		}
		reportLayers(&o.layers, ts[0].rep)
		var tw []float64
		for _, s := range ts {
			tw = append(tw, s.wallS)
		}
		wall, _ := o.e2e.get("wall_s")
		o.layers.add("trace_overhead", median(tw)/wall, "ratio")
	}
	o.e2e.add("ok_ratio", float64(o.attempted-o.failed)/float64(o.attempted), "ratio")
	return nil
}
