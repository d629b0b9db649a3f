// Command benchmark is the repo's end-to-end benchmark: it runs one
// workload (kv-zipf, kv-lossy or water-mw) on the default sequential
// engine from a seed, checks every output against its oracle, and prints
// the metrics as a table and, on the last line, as one JSON object.
// With -trace 1 it also records spans around its own calls into the
// public API and a CPU profile, and prints the per-layer metrics
// instead. See NOTES.md for the metric definitions. From the repo root:
//
//	bash benchmark/run.sh --workload kv-zipf --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	millipage "millipage"
)

// sample is one repetition of a workload's timed run.
type sample struct {
	rep        *millipage.Report
	setupS     float64 // host s before the timed section
	wallS      float64 // host s of the timed section
	allocBytes uint64  // heap bytes allocated in the timed section
	vtime      int64   // virtual ns of the timed section
	fp         uint64  // response fingerprint
	attempted  int
	failed     int // operations that broke a check
	firstViol  string
}

// outcome is everything one invocation measured and checked.
type outcome struct {
	e2e, layers metrics
	attempted   int
	failed      int
	firstViol   string
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if o.firstViol == "" {
		o.firstViol = fmt.Sprintf(format, args...)
	}
}

// config is the invocation's settings.
type config struct {
	seed     int64
	deadline time.Time // when the invocation's measuring time is spent
	traced   bool
	outDir   string
}

// repeats checks that a repetition of one seed reproduced the first
// bit-for-bit in virtual time and response fingerprint.
func (o *outcome) repeats(first, s *sample) {
	if s.vtime != first.vtime || s.fp != first.fp {
		o.fail(1, "repeat run diverged: vtime %d fingerprint %016x, first run %d %016x", s.vtime, s.fp, first.vtime, first.fp)
	}
}

// hostMetrics adds the host-clock end-to-end metrics, each the median
// over the repetitions.
func (o *outcome) hostMetrics(ss []*sample) {
	var setup, wall, alloc, nsMsg []float64
	for _, s := range ss {
		setup = append(setup, s.setupS)
		wall = append(wall, s.wallS)
		alloc = append(alloc, float64(s.allocBytes)/(1<<20))
		nsMsg = append(nsMsg, s.wallS*1e9/float64(max(s.rep.MessagesSent, 1)))
	}
	o.e2e = append(o.e2e, metric{name: "wall_s", value: median(wall), unit: "s", note: fmt.Sprintf("median of %d runs", len(ss))})
	o.e2e.add("setup_s", median(setup), "s")
	o.e2e.add("alloc_mb", median(alloc), "MB")
	o.e2e.add("wall_ns_per_msg", median(nsMsg), "ns")
}

// rssProbes is how many fresh processes probeRSS starts.
const rssProbes = 5

// probeRSS runs one repetition of the workload in each of rssProbes
// fresh processes of this binary and returns the median of their peak
// resident set sizes. A long-lived process's peak would be set by
// whichever of its many repetitions happened to meet a late garbage
// collection; one repetition in a fresh process has a steady peak.
func probeRSS(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	var rss []float64
	for i := 0; i < rssProbes; i++ {
		cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-rss-probe")
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("RSS probe: %w", err)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return 0, fmt.Errorf("RSS probe: no resource usage for the child process")
		}
		rss = append(rss, float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	return median(rss), nil
}

// reportLayers adds the per-layer counters the public Report and
// ThreadReport expose. The coherence-protocol counters are reported
// under the module that produced them: dsm for millipage, lrc for
// lrc-mw; the other module's counters read 0.
func reportLayers(m *metrics, rep *millipage.Report) {
	for _, mod := range []string{"dsm", "lrc"} {
		on := (mod == "dsm") == (rep.Protocol == "millipage")
		v := func(x float64) float64 {
			if on {
				return x
			}
			return 0
		}
		m.add(mod+".read_faults", v(float64(rep.ReadFaults)), "count")
		m.add(mod+".write_faults", v(float64(rep.WriteFaults)), "count")
		m.add(mod+".invalidations", v(float64(rep.Invalidations)), "count")
		m.add(mod+".competing_requests", v(float64(rep.CompetingRequests)), "count")
		m.add(mod+".avg_read_fault_us", v(float64(rep.AvgReadFaultTime)/1e3), "us")
		m.add(mod+".avg_write_fault_us", v(float64(rep.AvgWriteFaultTime)/1e3), "us")
		m.add(mod+".locks", v(float64(rep.LockAcquisitions)), "count")
		m.add(mod+".barriers", v(float64(rep.Barriers)), "count")
	}
	m.add("fastmsg.messages", float64(rep.MessagesSent), "count")
	m.add("fastmsg.bytes", float64(rep.BytesSent), "B")
	m.add("fastmsg.service_delay_us", float64(rep.AvgServiceDelay)/1e3, "us")
	m.add("fastmsg.retransmits", float64(rep.Retransmits), "count")
	m.add("fastmsg.dups_dropped", float64(rep.DupsDropped), "count")
	m.add("fastmsg.out_of_order", float64(rep.OutOfOrder), "count")
	m.add("fastmsg.goodput_ratio", float64(rep.MessagesSent)/float64(max(rep.MessagesSent+rep.Retransmits, 1)), "ratio")
	comp, _, rf, wf, sy := rep.AvgBreakdown()
	m.add("cluster.compute_frac", comp, "ratio")
	m.add("cluster.read_fault_frac", rf, "ratio")
	m.add("cluster.write_fault_frac", wf, "ratio")
	m.add("cluster.synch_frac", sy, "ratio")
	m.add("core.minipages", float64(rep.Minipages), "count")
	m.add("core.views_used", float64(rep.ViewsUsed), "count")
}

// profiled runs fn under the CPU profiler and adds each module's
// profiled time divided by the number of runs fn reports, so self times
// are per run whatever the repetition count.
func profiled(cfg config, m *metrics, fn func() (runs int)) error {
	path := filepath.Join(cfg.outDir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	runs := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing CPU profile: %w", err)
	}
	ps, err := attribute(path)
	if err != nil {
		return err
	}
	var sum time.Duration
	for _, mod := range profModules {
		sum += ps.self[mod]
		m.add(mod+".self_s", ps.self[mod].Seconds()/float64(runs), "s")
	}
	// pprof prints the profile's total to three significant digits.
	if diff := sum - ps.header; sum == 0 || diff > ps.header/100 || -diff > ps.header/100 {
		return fmt.Errorf("profile attribution: modules sum to %v, profile total %v", sum, ps.header)
	}
	// runtime/pprof samples at a fixed 100 Hz.
	m.add("profile.samples", float64(sum/(10*time.Millisecond)), "count")
	m.add("profile.runs", float64(runs), "count")
	return nil
}

// workload is one benchmark workload: run measures it for an
// invocation; once is one untraced repetition of its timed run.
type workload struct {
	run  func(cfg config) (*outcome, error)
	once func(seed int64) (*sample, error)
}

var workloads = map[string]workload{
	"kv-zipf":  {runKVZipf, func(seed int64) (*sample, error) { return kvOnce(zipfShape, seed, zipfRate, zipfOps) }},
	"kv-lossy": {runKVLossy, func(seed int64) (*sample, error) { return kvOnce(lossyShape, seed, lossyRate, lossyOps) }},
	"water-mw": {runWaterMW, runWATER},
}

func main() {
	workload := flag.String("workload", "", "workload: kv-zipf, kv-lossy or water-mw")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to spend measuring")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	outDir := flag.String("out", ".", "directory for the CPU profile of the traced run")
	probe := flag.Bool("rss-probe", false, "run one repetition and exit (the peak-RSS probe probeRSS starts)")
	flag.Parse()
	begin := time.Now()
	w, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload kv-zipf|kv-lossy|water-mw -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	if *probe {
		s, err := w.once(*seed)
		if err == nil && s.failed > 0 {
			err = fmt.Errorf("%d failure(s): %s", s.failed, s.firstViol)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: RSS probe: %v\n", *workload, err)
			os.Exit(1)
		}
		return
	}
	cfg := config{seed: *seed, deadline: begin.Add(time.Duration(*seconds * float64(time.Second))),
		traced: *trace == 1, outDir: *outDir}
	var rss float64
	var err error
	if !cfg.traced {
		if rss, err = probeRSS(*workload, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
			os.Exit(1)
		}
	}
	o, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !cfg.traced {
		o.e2e = append(o.e2e, metric{name: "max_rss_mb", value: rss, unit: "MB",
			note: fmt.Sprintf("median peak of %d fresh one-run processes", rssProbes)})
	}
	shown := o.e2e
	if cfg.traced {
		shown = o.layers
	}
	fmt.Printf("workload=%s seed=%d trace=%d attempted=%d failed=%d\n", *workload, *seed, *trace, o.attempted, o.failed)
	for _, x := range append(append(metrics(nil), o.e2e...), o.layers...) {
		fmt.Printf("  %-28s %16.6f %-6s %s\n", x.name, x.value, x.unit, x.note)
	}
	if o.firstViol != "" {
		fmt.Printf("first violation: %s\n", o.firstViol)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, x := range shown {
		res.Metrics[x.name] = value{x.value, x.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if o.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d failure(s): %s\n", *workload, o.failed, strings.TrimSpace(o.firstViol))
		os.Exit(1)
	}
}
