package main

// profile.go — attributes a CPU profile to the repo's modules. Each
// sample is charged to the innermost frame that belongs to a repo
// package, so runtime and standard-library frames count toward the repo
// code that called them; samples with no repo frame at all (GC workers,
// the scheduler) are charged to the runtime.

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// profModules are the repo modules whose self time the traced run
// reports, in output order. "benchmark" is this package's own code;
// "other" collects the remaining repo packages (stats, hostset, ...).
var profModules = []string{"sim", "fastmsg", "faultnet", "dsm", "lrc", "twindiff",
	"cluster", "mmu", "vm", "core", "apps", "millipage", "benchmark", "other", "runtime"}

// moduleOf maps a symbolized function name to its repo module, or ""
// when the function is not repo code.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "millipage/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(fn, "millipage/internal/"), ".")
		for _, m := range profModules {
			if m == mod {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "millipage."):
		return "millipage"
	case strings.HasPrefix(fn, "main."):
		return "benchmark"
	}
	return ""
}

// profShare is a profile's attribution: sample time per module.
type profShare struct {
	header time.Duration // the profile's own total, as pprof prints it
	self   map[string]time.Duration
}

// attribute runs `go tool pprof -traces` on the profile at path and
// charges every trace's samples to its module.
func attribute(path string) (*profShare, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, errb.String())
	}
	ps := &profShare{self: map[string]time.Duration{}}
	// Each trace is a block separated by a dashed line; its first line is
	// "<value><unit> <leaf function>", the following lines its callers.
	var val time.Duration
	var mod string
	inTrace := false
	flush := func() {
		if !inTrace {
			return
		}
		if mod == "" {
			mod = "runtime"
		}
		ps.self[mod] += val
		inTrace, mod = false, ""
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		if _, tot, ok := strings.Cut(line, "Total samples = "); ok && !inTrace {
			tot, _, _ = strings.Cut(tot, " ")
			if ps.header, err = parseSampleValue(tot); err != nil {
				return nil, fmt.Errorf("pprof header: %w", err)
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if !inTrace {
			d, err := parseSampleValue(f[0])
			if err != nil {
				continue // header lines before the first trace
			}
			val, inTrace = d, true
			f = f[1:]
			if len(f) == 0 {
				continue
			}
		}
		if mod == "" {
			mod = moduleOf(f[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading pprof traces: %w", err)
	}
	return ps, nil
}

// parseSampleValue parses a pprof time such as "10ms", "1.50s" or
// "1.20mins".
func parseSampleValue(s string) (time.Duration, error) {
	for suffix, unit := range map[string]float64{"mins": 60, "hrs": 3600} {
		if num, ok := strings.CutSuffix(s, suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("not a sample value: %q", s)
			}
			return time.Duration(v * unit * float64(time.Second)), nil
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("not a sample value: %q", s)
	}
	return d, nil
}
