// Package hdr implements HDR-style log-linear latency histograms: bucket
// bounds spaced linearly within each decade and exponentially across
// decades, so one layout spans sub-microsecond cache hits and second-long
// worst cases with bounded relative error everywhere. The service's
// latency histograms and the tpqload generator share this math, which is
// what makes a µs-scale cached hit produce a real p50/p99 instead of
// landing in the first of three coarse decades.
package hdr

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Layout describes a log-linear bucket layout: starting at MinNanos,
// Steps bounds per decade for Decades decades, then one final bound at
// MinNanos·10^Decades, with an implicit +Inf bucket above it. Steps must
// divide 9 (1, 3 or 9): the in-decade multipliers are 1, 1+9/Steps, …
// so consecutive decades tile without gaps.
type Layout struct {
	MinNanos int64
	Decades  int
	Steps    int
}

// DefaultLayout spans 100ns to 1s at 9 bounds per decade — 64 bounds.
// Fine enough that micro-second cache hits spread across real buckets,
// coarse enough that the bucket array stays cheap to scan and render.
var DefaultLayout = Layout{MinNanos: 100, Decades: 7, Steps: 9}

// Validate reports whether the layout is usable.
func (l Layout) Validate() error {
	if l.MinNanos <= 0 || l.Decades <= 0 {
		return fmt.Errorf("hdr: layout needs positive MinNanos and Decades")
	}
	if l.Steps <= 0 || 9%l.Steps != 0 {
		return fmt.Errorf("hdr: Steps must divide 9, got %d", l.Steps)
	}
	return nil
}

// NumBounds is the number of finite bucket bounds; buckets are
// NumBounds()+1 counting the +Inf bucket.
func (l Layout) NumBounds() int { return l.Decades*l.Steps + 1 }

// MaxNanos is the final finite bound.
func (l Layout) MaxNanos() int64 {
	max := l.MinNanos
	for d := 0; d < l.Decades; d++ {
		max *= 10
	}
	return max
}

// Bounds materializes the bucket upper bounds in nanoseconds, ascending.
func (l Layout) Bounds() []int64 {
	q := int64(9 / l.Steps)
	bounds := make([]int64, 0, l.NumBounds())
	scale := l.MinNanos
	for d := 0; d < l.Decades; d++ {
		for m := int64(1); m <= 9; m += q {
			bounds = append(bounds, scale*m)
		}
		scale *= 10
	}
	return append(bounds, scale)
}

// Index returns the bucket for a duration of ns nanoseconds: the index
// of the first bound ≥ ns, or NumBounds() for the +Inf bucket. Pure
// integer arithmetic — no log, no search.
func (l Layout) Index(ns int64) int {
	if ns <= l.MinNanos {
		return 0
	}
	q := int64(9 / l.Steps)
	scale := l.MinNanos
	for d := 0; d < l.Decades; d++ {
		top := scale * 10
		if ns <= top {
			m := (ns + scale - 1) / scale // ceil: smallest multiplier ≥ ns/scale
			j := (m - 1 + q - 1) / q      // position of that multiplier in the 1,1+q,… series
			if j >= int64(l.Steps) {
				return (d + 1) * l.Steps // lands on the next decade's first bound
			}
			return d*l.Steps + int(j)
		}
		scale = top
	}
	return l.NumBounds()
}

// Histogram is a concurrent log-linear histogram. All methods are safe
// for concurrent use; reads are monitoring-consistent (individual atomic
// loads, not a snapshot).
type Histogram struct {
	layout  Layout
	bounds  []int64
	buckets []atomic.Int64 // len = NumBounds()+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // exact observed maximum, for the +Inf quantile
}

// New returns an empty histogram over the layout (DefaultLayout when
// zero). Panics on an invalid layout — layouts are build-time choices.
func New(l Layout) *Histogram {
	if l == (Layout{}) {
		l = DefaultLayout
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return &Histogram{
		layout:  l,
		bounds:  l.Bounds(),
		buckets: make([]atomic.Int64, l.NumBounds()+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[h.layout.Index(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the exact largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns an upper bound on the q-quantile: the bound of the
// first bucket at which the cumulative count reaches q·total, or the
// exact observed maximum when that bucket is +Inf. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= need {
			if i < len(h.bounds) {
				return time.Duration(h.bounds[i])
			}
			return time.Duration(h.max.Load())
		}
	}
	return time.Duration(h.max.Load())
}

// Bounds returns the layout's finite bucket bounds in nanoseconds. The
// caller must not modify the slice.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Counts copies the per-bucket counts (the last entry is the +Inf
// bucket).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
