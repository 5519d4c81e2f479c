package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promScrape is one Prometheus text exposition with every sample
// summed over all label sets except le, so the per-fabric series of a
// sharded cluster merge into one. Histogram buckets are kept per le.
type promScrape struct {
	values  map[string]float64             // plain samples by metric name
	buckets map[string]map[float64]float64 // name (without _bucket) → le → cumulative count
}

// parseProm reads the text exposition format the obs package writes.
func parseProm(r io.Reader) (*promScrape, error) {
	p := &promScrape{values: map[string]float64{}, buckets: map[string]map[float64]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		if base, ok := strings.CutSuffix(name, "_bucket"); ok {
			le, ok := labelValue(labels, "le")
			if !ok {
				continue
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			if p.buckets[base] == nil {
				p.buckets[base] = map[float64]float64{}
			}
			p.buckets[base][bound] += v
			continue
		}
		p.values[name] += v
	}
	return p, sc.Err()
}

// labelValue extracts one label's value from a rendered {a="x",b="y"}.
func labelValue(labels, key string) (string, bool) {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return "", false
	}
	rest := labels[i+len(key)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// counterDelta is a plain sample's growth between two scrapes.
func counterDelta(before, after *promScrape, name string) float64 {
	return after.values[name] - before.values[name]
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, the way obs.Histogram.Quantile does:
// find the bucket holding rank q·n and interpolate linearly inside it.
// The answer is only as fine as the bucket ladder (see NOTES.md); a
// rank in the +Inf bucket clamps to the largest finite bound. It
// returns the sample count as well.
func histQuantile(before, after *promScrape, name string, q float64) (float64, float64) {
	a, b := after.buckets[name], before.buckets[name]
	bounds := make([]float64, 0, len(a))
	for le := range a {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0, 0
	}
	cum := make([]float64, len(bounds))
	for i, le := range bounds {
		cum[i] = a[le] - b[le]
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0, 0
	}
	rank := q * total
	prevCum, lo := 0.0, 0.0
	for i, le := range bounds {
		if cum[i] > prevCum && cum[i] >= rank {
			if math.IsInf(le, 1) {
				if i == 0 {
					return 0, total
				}
				return bounds[i-1], total
			}
			return lo + (le-lo)*(rank-prevCum)/(cum[i]-prevCum), total
		}
		prevCum = cum[i]
		if !math.IsInf(le, 1) {
			lo = le
		}
	}
	return lo, total
}
