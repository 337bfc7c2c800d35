package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: every series
// keyed by its name and label set exactly as the daemon rendered them
// (`name` or `name{k="v",...}`).
type promSample map[string]float64

// parseProm reads the text exposition format. Comment and blank lines are
// skipped; a line that does not end in a number is an error, so a change
// in the daemon's format fails the run instead of reading as zero.
func parseProm(body []byte) (promSample, error) {
	out := make(promSample, 512)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds every series whose key starts with prefix (all label
// values of one family).
func (s promSample) sumPrefix(prefix string) float64 {
	t := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le    float64
	count float64
}

// histDelta returns the histogram family name{labels} as observed between
// two scrapes: cumulative bucket counts, sum and count, each end minus
// start. labels is the label set without le, e.g. `stage="read"`, or "".
func histDelta(start, end promSample, name, labels string) (bs []bucket, sum, count float64) {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	for k, v := range end {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := math.Inf(1)
		if raw := strings.TrimSuffix(k[len(prefix):], `"}`); raw != "+Inf" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le: le, count: v - start[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	sel := ""
	if labels != "" {
		sel = "{" + labels + "}"
	}
	sum = end[name+"_sum"+sel] - start[name+"_sum"+sel]
	count = end[name+"_count"+sel] - start[name+"_count"+sel]
	return bs, sum, count
}

// histQuantile estimates the q-quantile of cumulative buckets the way
// Prometheus' histogram_quantile does: linear interpolation inside the
// bucket that holds the rank, the lower bound of the first bucket being 0.
// A rank in the +Inf bucket returns the highest finite bound. It returns
// NaN for an empty histogram.
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].count
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.count == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}
