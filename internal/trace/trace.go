// Package trace collects the time series the paper's figures plot:
// achieved bandwidth over time (Figures 1, 8, 9) and TCP sequence
// numbers over time (Figure 7).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mpichgq/internal/units"
)

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []Point
}

// String renders the series as "t\tv" lines, gnuplot-style.
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%.3f\t%.2f\n", p.T.Seconds(), p.V)
	}
	return b.String()
}

// Max returns the largest value in the series (0 if empty).
func (s Series) Max() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points[1:] {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Min returns the smallest value in the series (0 if empty).
func (s Series) Min() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points[1:] {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Mean returns the arithmetic mean of the values (0 if empty).
func (s Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Between returns the sub-series with from <= T < to.
func (s Series) Between(from, to time.Duration) Series {
	out := Series{Name: s.Name}
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// BandwidthTrace accumulates transferred bytes into fixed-width time
// buckets and reports the per-bucket rate, the paper's standard plot.
type BandwidthTrace struct {
	bucket  time.Duration
	byIdx   map[int]int64 // bucket index -> bytes
	maxIdx  int
	total   int64
	firstAt time.Duration
	lastAt  time.Duration
	any     bool
}

// NewBandwidthTrace returns a trace with the given bucket width.
func NewBandwidthTrace(bucket time.Duration) *BandwidthTrace {
	if bucket <= 0 {
		panic("trace: non-positive bucket width")
	}
	return &BandwidthTrace{bucket: bucket, byIdx: make(map[int]int64)}
}

// Add records n bytes transferred at virtual time now.
func (t *BandwidthTrace) Add(now time.Duration, n units.ByteSize) {
	idx := int(now / t.bucket)
	t.byIdx[idx] += int64(n)
	if idx > t.maxIdx {
		t.maxIdx = idx
	}
	t.total += int64(n)
	if !t.any || now < t.firstAt {
		t.firstAt = now
	}
	if now > t.lastAt {
		t.lastAt = now
	}
	t.any = true
}

// Total returns all bytes recorded.
func (t *BandwidthTrace) Total() units.ByteSize { return units.ByteSize(t.total) }

// Series returns the per-bucket bandwidth in Kb/s, with points at
// bucket midpoints. Empty buckets up to the last sample are included
// as zeros, so stalls show as gaps in the plot, exactly like Figure 1.
func (t *BandwidthTrace) Series(name string) Series {
	s := Series{Name: name}
	if !t.any {
		return s
	}
	for i := 0; i <= t.maxIdx; i++ {
		rate := units.RateOf(units.ByteSize(t.byIdx[i]), t.bucket)
		s.Points = append(s.Points, Point{
			T: time.Duration(i)*t.bucket + t.bucket/2,
			V: rate.Kbps(),
		})
	}
	return s
}

// MeanRate returns the average rate between from and to.
func (t *BandwidthTrace) MeanRate(from, to time.Duration) units.BitRate {
	if to <= from {
		return 0
	}
	var bytes int64
	for i, b := range t.byIdx {
		mid := time.Duration(i)*t.bucket + t.bucket/2
		if mid >= from && mid < to {
			bytes += b
		}
	}
	return units.RateOf(units.ByteSize(bytes), to-from)
}

// SeqPoint is one transmitted TCP segment for a sequence-number trace.
type SeqPoint struct {
	T    time.Duration
	Seq  int64
	Len  units.ByteSize
	Retx bool
}

// SeqTrace records TCP segment transmissions (Figure 7). DVis fills it
// from the flight recorder's tcp-segment events.
type SeqTrace struct {
	Points []SeqPoint
}

// Record appends a transmission.
func (t *SeqTrace) Record(now time.Duration, seq int64, length units.ByteSize, retx bool) {
	t.Points = append(t.Points, SeqPoint{T: now, Seq: seq, Len: length, Retx: retx})
}

// Series converts the trace to (time, sequence number in Kb) points,
// the units of Figure 7's y-axis.
func (t *SeqTrace) Series(name string) Series {
	s := Series{Name: name}
	for _, p := range t.Points {
		s.Points = append(s.Points, Point{T: p.T, V: float64(p.Seq) * 8 / 1000})
	}
	return s
}

// Between returns the points with from <= T < to.
func (t *SeqTrace) Between(from, to time.Duration) []SeqPoint {
	var out []SeqPoint
	for _, p := range t.Points {
		if p.T >= from && p.T < to {
			out = append(out, p)
		}
	}
	return out
}

// Retransmits counts retransmitted segments in the trace.
func (t *SeqTrace) Retransmits() int {
	n := 0
	for _, p := range t.Points {
		if p.Retx {
			n++
		}
	}
	return n
}

// BurstStats summarizes the burstiness of a sequence trace: the
// largest number of bytes transmitted within any window of the given
// width.
func (t *SeqTrace) BurstStats(window time.Duration) (maxBurst units.ByteSize) {
	if len(t.Points) == 0 {
		return 0
	}
	pts := make([]SeqPoint, len(t.Points))
	copy(pts, t.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	start := 0
	var cur units.ByteSize
	for i, p := range pts {
		cur += p.Len
		for pts[start].T < p.T-window {
			cur -= pts[start].Len
			start++
		}
		_ = i
		if cur > maxBurst {
			maxBurst = cur
		}
	}
	return maxBurst
}

// Table renders labelled rows with a header, used by the cmd tools to
// print the paper's tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
