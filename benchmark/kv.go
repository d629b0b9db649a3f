package main

// kv.go — the benchmark's own open-loop key-value load generator on the
// public Worker API. Keys hash to buckets; each bucket is one shared
// allocation (one minipage) holding an 8-byte slot per key. A PUT locks
// the bucket, reads the slot, and stores (seq+1, payload(key, seq+1)) as
// one word; a GET reads the slot lock-free (millipage is sequentially
// consistent). Every response is checked against the payload oracle and
// per-client monotonicity, and every key's final sequence number against
// the number of PUTs issued to it.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	millipage "millipage"
	"millipage/internal/faultnet"
)

// kvShape is a KV workload's cluster and traffic shape; the rate and
// op count are chosen per run.
type kvShape struct {
	hosts    int
	keys     int
	buckets  int
	clients  int
	readFrac float64
	zipfS    float64
	lossy    bool // seeded 1% drop + 1% duplicate fault plan
}

// op is one generated request: due is its arrival time in virtual ns
// after the timed section starts.
type op struct {
	due    int64
	client uint64
	key    uint32
	get    bool
}

// kvInputs is everything generated from the seed before the cluster runs.
type kvInputs struct {
	streams   [][]op // per cluster thread
	bucketOf  []uint32
	slotOf    []uint32
	bucketLen []uint32
}

// splitmix64 finalizer; the generator's only source of randomness.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// genKV draws ops requests at an aggregate Poisson rate from seed: Zipf
// key ranks through a seeded rank->key permutation, a uniformly drawn
// client among those multiplexed on each thread, and the read/write mix.
func genKV(sh kvShape, seed int64, rate float64, ops int) *kvInputs {
	in := &kvInputs{bucketOf: make([]uint32, sh.keys), slotOf: make([]uint32, sh.keys),
		bucketLen: make([]uint32, sh.buckets)}
	for k := 0; k < sh.keys; k++ {
		b := uint32(mix64(uint64(k)^0xb0c4e7) % uint64(sh.buckets))
		in.bucketOf[k] = b
		in.slotOf[k] = in.bucketLen[b]
		in.bucketLen[b]++
	}
	cdf := make([]float64, sh.keys)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), sh.zipfS)
		cdf[i] = sum
	}
	perm := make([]uint32, sh.keys)
	for i := range perm {
		perm[i] = uint32(i)
	}
	r := rng{s: mix64(uint64(seed) ^ 0x5eedca5e)}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}

	threads := sh.hosts
	in.streams = make([][]op, threads)
	meanGap := 1e9 * float64(threads) / rate
	for t := 0; t < threads; t++ {
		n := ops / threads
		if t < ops%threads {
			n++
		}
		clients := sh.clients / threads
		if t < sh.clients%threads {
			clients++
		}
		g := rng{s: mix64(uint64(seed)) ^ (uint64(t)+1)*0x9e3779b97f4a7c15}
		s := make([]op, n)
		due := 0.0
		for i := range s {
			due += max(-math.Log1p(-g.float())*meanGap, 1)
			u := g.float() * sum
			rank := min(sort.SearchFloat64s(cdf, u), len(cdf)-1)
			s[i] = op{
				due:    int64(due),
				key:    perm[rank],
				client: uint64(t) + uint64(threads)*uint64(g.intn(clients)),
				get:    g.float() < sh.readFrac,
			}
		}
		in.streams[t] = s
	}
	return in
}

// payload is the value a key must hold after its seq-th PUT.
func payload(key, seq uint32) uint32 {
	if seq == 0 {
		return 0
	}
	return uint32(mix64(uint64(key)<<32 | uint64(seq)))
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fpMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Worker calls the load generator makes; the index of a call's span list.
const (
	callRead = iota
	callWrite
	callLock
	callUnlock
	numCalls
)

var callNames = [numCalls]string{"read", "write", "lock", "unlock"}

// opTrace holds one thread's spans: virtual-time durations of every
// Worker call, and each op's queue wait (due -> start) and service time
// (start -> done).
type opTrace struct {
	calls          [numCalls]dist
	queue, service dist
	inOp           int64 // sum of this op's call durations so far
	identityBad    int   // ops whose spans do not sum to their latency
}

// kvThread is one cluster thread's load-generator state. Threads touch only
// their own entry; results merge in thread order after the run.
type kvThread struct {
	w          *millipage.Worker
	tr         *opTrace // nil when untraced
	get, put   dist
	fp         uint64
	seen       map[uint64]uint32 // client*keys+key -> highest seq served
	putCount   []uint32          // key -> PUTs this thread issued
	violations int
	firstViol  string
}

func (d *kvThread) span(kind int, t0 millipage.Duration) {
	dur := int64(d.w.Now() - t0)
	d.tr.calls[kind] = append(d.tr.calls[kind], dur)
	d.tr.inOp += dur
}

func (d *kvThread) read(a millipage.Addr) uint64 {
	if d.tr == nil {
		return d.w.ReadU64(a)
	}
	t0 := d.w.Now()
	v := d.w.ReadU64(a)
	d.span(callRead, t0)
	return v
}

func (d *kvThread) write(a millipage.Addr, v uint64) {
	if d.tr == nil {
		d.w.WriteU64(a, v)
		return
	}
	t0 := d.w.Now()
	d.w.WriteU64(a, v)
	d.span(callWrite, t0)
}

func (d *kvThread) lock(id int) {
	if d.tr == nil {
		d.w.Lock(id)
		return
	}
	t0 := d.w.Now()
	d.w.Lock(id)
	d.span(callLock, t0)
}

func (d *kvThread) unlock(id int) {
	if d.tr == nil {
		d.w.Unlock(id)
		return
	}
	t0 := d.w.Now()
	d.w.Unlock(id)
	d.span(callUnlock, t0)
}

func (d *kvThread) violate(format string, args ...any) {
	d.violations++
	if d.firstViol == "" {
		d.firstViol = fmt.Sprintf(format, args...)
	}
}

// observe checks a served slot word: its payload must decode for its
// sequence number, and this client must never see the key go backwards.
func (d *kvThread) observe(client uint64, key uint32, word uint64, keys int) {
	seq, pay := uint32(word>>32), uint32(word)
	if pay != payload(key, seq) {
		d.violate("key %d: slot (seq=%d, payload=%#x) does not decode", key, seq, pay)
	}
	ck := client*uint64(keys) + uint64(key)
	if last := d.seen[ck]; seq < last {
		d.violate("client %d key %d: seq %d after seq %d", client, key, seq, last)
	} else if seq > last {
		d.seen[ck] = seq
	}
}

// kvResult is one KV run.
type kvResult struct {
	sample
	lastDue     int64
	get, put    dist    // arrival -> completion, virtual ns, sorted
	newClusterS float64 // host s inside millipage.NewCluster
	tr          *opTrace
}

// runKV generates the inputs, builds the cluster, allocates the buckets
// and then drives the timed section. traced records spans.
func runKV(sh kvShape, seed int64, rate float64, ops int, traced bool) (*kvResult, error) {
	t0 := time.Now()
	runtime.GC()
	in := genKV(sh, seed, rate, ops)
	var plan *faultnet.Plan
	if sh.lossy {
		plan = &faultnet.Plan{Seed: int64(mix64(uint64(seed)^0xfa017) >> 1), Drop: 0.01, Dup: 0.01}
	}
	tc := time.Now()
	cl, err := millipage.NewCluster(millipage.Config{
		Hosts:         sh.hosts,
		SharedMemory:  8*sh.keys + 64*sh.buckets + (256 << 10),
		Views:         16,
		Seed:          seed,
		PerfectTimers: true,
		Faults:        plan,
	})
	res := &kvResult{newClusterS: time.Since(tc).Seconds(), sample: sample{attempted: ops}}
	if err != nil {
		return nil, fmt.Errorf("NewCluster: %w", err)
	}

	threads := sh.hosts
	keyAddr := make([]millipage.Addr, sh.keys)
	ths := make([]kvThread, threads)
	for i := range ths {
		ths[i] = kvThread{fp: fnvOffset, seen: make(map[uint64]uint32), putCount: make([]uint32, sh.keys)}
		if traced {
			ths[i].tr = &opTrace{}
		}
	}
	var startOnce, endOnce sync.Once
	var tStart, tEnd time.Time
	var ms0, ms1 runtime.MemStats
	var finalBad string

	res.rep, err = cl.Run(func(w *millipage.Worker) {
		t := w.ThreadID()
		if t == 0 {
			bucketAddr := make([]millipage.Addr, sh.buckets)
			for b := range bucketAddr {
				bucketAddr[b] = w.Malloc(8 * max(int(in.bucketLen[b]), 1))
			}
			for k := range keyAddr {
				keyAddr[k] = bucketAddr[in.bucketOf[k]] + millipage.Addr(8*in.slotOf[k])
			}
		}
		w.Barrier()
		w.ResetStats()
		startOnce.Do(func() {
			runtime.ReadMemStats(&ms0)
			tStart = time.Now()
		})
		start := w.Now()
		d := &ths[t]
		d.w = w
		for _, o := range in.streams[t] {
			due := start + millipage.Duration(o.due)
			if now := w.Now(); now < due {
				w.Compute(due - now)
			}
			begin := w.Now()
			addr := keyAddr[o.key]
			lockID := int(in.bucketOf[o.key])
			var word uint64
			if o.get {
				word = d.read(addr)
				d.observe(o.client, o.key, word, sh.keys)
			} else {
				d.lock(lockID)
				cur := d.read(addr)
				d.observe(o.client, o.key, cur, sh.keys)
				seq := uint32(cur>>32) + 1
				word = uint64(seq)<<32 | uint64(payload(o.key, seq))
				d.write(addr, word)
				d.unlock(lockID)
				d.putCount[o.key]++
				d.observe(o.client, o.key, word, sh.keys)
			}
			done := w.Now()
			lat := int64(done - due)
			if o.get {
				d.get = append(d.get, lat)
			} else {
				d.put = append(d.put, lat)
			}
			if tr := d.tr; tr != nil {
				q, s := int64(begin-due), int64(done-begin)
				tr.queue = append(tr.queue, q)
				tr.service = append(tr.service, s)
				if q+tr.inOp != lat {
					tr.identityBad++
				}
				tr.inOp = 0
			}
			kind := uint64(1)
			if o.get {
				kind = 0
			}
			for _, v := range [...]uint64{kind, uint64(o.key), o.client, word, uint64(due), uint64(done)} {
				d.fp = fpMix(d.fp, v)
			}
		}
		w.Barrier()
		endOnce.Do(func() {
			tEnd = time.Now()
			runtime.ReadMemStats(&ms1)
		})
		if t == 0 {
			res.vtime = int64(w.Now() - start)
			for k := 0; k < sh.keys; k++ {
				var want uint32
				for i := range ths {
					want += ths[i].putCount[k]
				}
				word := w.ReadU64(keyAddr[k])
				if seq := uint32(word >> 32); seq != want || uint32(word) != payload(uint32(k), seq) {
					finalBad = fmt.Sprintf("final oracle: key %d holds seq %d after %d PUTs", k, seq, want)
					return
				}
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("Cluster.Run: %w", err)
	}
	res.setupS = tStart.Sub(t0).Seconds()
	res.wallS = tEnd.Sub(tStart).Seconds()
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc

	fp := uint64(fnvOffset)
	if traced {
		res.tr = &opTrace{}
	}
	for i := range ths {
		d := &ths[i]
		res.get = append(res.get, d.get...)
		res.put = append(res.put, d.put...)
		res.failed += d.violations
		if res.firstViol == "" {
			res.firstViol = d.firstViol
		}
		if s := in.streams[i]; len(s) > 0 {
			res.lastDue = max(res.lastDue, s[len(s)-1].due)
		}
		fp = fpMix(fpMix(fp, uint64(i)), d.fp)
		if traced {
			for c := range d.tr.calls {
				res.tr.calls[c] = append(res.tr.calls[c], d.tr.calls[c]...)
			}
			res.tr.queue = append(res.tr.queue, d.tr.queue...)
			res.tr.service = append(res.tr.service, d.tr.service...)
			res.tr.identityBad += d.tr.identityBad
		}
	}
	if finalBad != "" {
		res.failed++
		if res.firstViol == "" {
			res.firstViol = finalBad
		}
	}
	if traced {
		res.failed += res.tr.identityBad
		if res.tr.identityBad > 0 && res.firstViol == "" {
			res.firstViol = fmt.Sprintf("span accounting: %d ops whose queue wait plus call spans differ from their latency", res.tr.identityBad)
		}
		for c := range res.tr.calls {
			res.tr.calls[c] = res.tr.calls[c].sorted()
		}
		res.tr.queue = res.tr.queue.sorted()
		res.tr.service = res.tr.service.sorted()
	}
	res.fp = fpMix(fp, uint64(res.vtime))
	res.get = res.get.sorted()
	res.put = res.put.sorted()
	return res, nil
}

// keepsUp reports whether a run meets the serving limit: GET p99 within
// 2 ms virtual, and completions at no less than 95% of the rate the
// generated arrivals offered (ops over the last arrival's due time), so
// no backlog grows.
func (r *kvResult) keepsUp() bool {
	p99, _, _ := r.get.pct(0.99)
	return p99 <= 2_000_000 && float64(r.lastDue) >= 0.95*float64(r.vtime) && r.failed == 0
}
