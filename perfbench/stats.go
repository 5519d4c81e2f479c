package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least q·n samples at or below it. Zero for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailLadder is the set of percentiles a tail metric may report,
// highest first. A p99 metric is never reported above p99.
var tailLadder = []float64{0.99, 0.90, 0.50}

// tail applies the benchmark's percentile rule to sorted samples:
// report the highest percentile of the ladder that has at least ten
// samples beyond it (n·(1−q) ≥ 10), together with the percentile used.
// A run with fewer than 20 samples has no such percentile; it reports
// its maximum, with q = 1.
func tail(sorted []float64) (value, q float64) {
	n := float64(len(sorted))
	for _, q := range tailLadder {
		if n*(1-q) >= 10-1e-9 { // 1−0.9 is not exactly 0.1 in floating point
			return quantile(sorted, q), q
		}
	}
	if len(sorted) == 0 {
		return 0, 1
	}
	return sorted[len(sorted)-1], 1
}

// samples is an unsorted collection of observations.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s samples) p50() float64 { return quantile(s.sorted(), 0.5) }

// dueLatency is the open-loop accounting of one request: its latency
// runs from when it was due, not from when the generator got round to
// sending it, so a stall in the generator or the server is charged to
// every request it delayed. late is how far behind schedule the send
// left. All three arguments are offsets from the same origin.
func dueLatency(due, sent, done time.Duration) (latency, late time.Duration) {
	return done - due, sent - due
}

// slotClock maps a fabric's virtual slots to the wall time at which a
// published snapshot first showed them. Observations must arrive with
// nondecreasing slot numbers (a fabric's clock never runs backwards).
type slotClock struct {
	slots []int64
	walls []time.Duration
}

// observe records that the snapshot showed slot at wall offset t. Only
// the first sighting of each slot is kept.
func (c *slotClock) observe(slot int64, t time.Duration) {
	if n := len(c.slots); n > 0 && slot <= c.slots[n-1] {
		return
	}
	c.slots = append(c.slots, slot)
	c.walls = append(c.walls, t)
}

// wall returns when a snapshot first showed slot or a later one: a
// coflow whose Completed slot is s became visible as completed then.
// The answer is late by at most the polling interval, and one observed
// step may cover several slots when the poller missed some. ok is false
// if the clock never reached slot.
func (c *slotClock) wall(slot int64) (t time.Duration, ok bool) {
	i := sort.Search(len(c.slots), func(i int) bool { return c.slots[i] >= slot })
	if i == len(c.slots) {
		return 0, false
	}
	return c.walls[i], true
}

// heapSampler records the peak live heap: the bytes the last GC cycle
// found reachable, sampled every 5 ms. Unlike the heap's current size
// it does not count garbage awaiting collection, so it does not swing
// with GC timing. runtime/metrics reads do not stop the world, so
// sampling does not perturb the latencies it runs beside.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  float64
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap(s []metrics.Sample) float64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			v := readHeap(s)
			h.mu.Lock()
			if v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit, and returns the
// peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// allocCounter reads the process's cumulative heap allocation count.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() float64 {
	metrics.Read(a.s)
	if a.s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(a.s[0].Value.Uint64())
}

// deriveSeed turns the workload seed and a stream index into an
// independent seed (splitmix64), so every generated input is a pure
// function of the workload seed.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// Set-up repeats: at least setupMinRepeats, and more (up to
// setupMaxRepeats) until they add up to setupMinTotal, so a set-up of a
// millisecond is still reported as the median of many.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 1000
	setupMinTotal   = time.Second
)

// repeatSetup runs once as often as the rule above asks and returns the
// median of the durations it reports, in seconds. once times only its
// own set-up work (tearing down the previous repeat is not set-up).
func repeatSetup(once func() (time.Duration, error)) (float64, error) {
	var ds samples
	var total time.Duration
	for len(ds) < setupMinRepeats || (total < setupMinTotal && len(ds) < setupMaxRepeats) {
		d, err := once()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
		total += d
	}
	return ds.p50(), nil
}

// windows is how many equal parts of a load phase the serving latency
// percentiles are taken over.
const windows = 10

// windowed collects observations into equal windows of a phase by due
// time. Its statistics are medians over windows of each window's
// percentile, so a disturbance confined to part of a run (a burst of
// load from another tenant of the host, say) moves one window, not
// the reported value.
type windowed struct {
	width time.Duration
	win   []samples
}

func newWindowed(horizon time.Duration, n int) *windowed {
	if horizon <= 0 {
		horizon = time.Nanosecond
	}
	return &windowed{width: (horizon + time.Duration(n) - 1) / time.Duration(n), win: make([]samples, n)}
}

func (w *windowed) add(due time.Duration, v float64) {
	i := int(due / w.width)
	if i < 0 {
		i = 0
	}
	if i >= len(w.win) {
		i = len(w.win) - 1
	}
	w.win[i] = append(w.win[i], v)
}

// count is the number of observations over all windows.
func (w *windowed) count() int {
	n := 0
	for _, s := range w.win {
		n += len(s)
	}
	return n
}

// tail is the median over non-empty windows of each window's tail (the
// percentile rule applied per window), with the lowest percentile any
// window had to fall back to.
func (w *windowed) tail() (value, q float64) {
	var per samples
	q = 1
	for _, s := range w.win {
		if len(s) == 0 {
			continue
		}
		v, wq := tail(s.sorted())
		per = append(per, v)
		if wq < q {
			q = wq
		}
	}
	return per.p50(), q
}

// quantile is the median over non-empty windows of each window's
// q-quantile.
func (w *windowed) quantile(q float64) float64 {
	var per samples
	for _, s := range w.win {
		if len(s) > 0 {
			per = append(per, quantile(s.sorted(), q))
		}
	}
	return per.p50()
}
