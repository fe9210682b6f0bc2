package sink

import (
	"fmt"
	"math"
)

// microScale is the fixed-point quantum of the aggregator: values are
// quantized to integer micro-units on append, so sums and extrema are
// integer arithmetic — commutative and associative, which is what makes
// the aggregate independent of append order. At 1e6 the accumulator
// holds ~9e12 unit-sum before overflow, far beyond any population this
// repository simulates (1e8 devices at 1e4 mW is 1e18 micro-units,
// still inside int64).
const microScale = 1e6

// metricAgg is the per-column streaming state: only counts and
// fixed-point integers, never rows.
type metricAgg struct {
	col      Column
	count    int64
	sum      int64 // micro-units
	min, max int64 // micro-units
	under    int64 // appends below HistLo
	over     int64 // appends at or above HistHi
	hist     []int64
}

// Agg is the streaming aggregator sink: it folds every appended row
// into per-column aggregates (count, mean, min, max, and — for columns
// that request one — a fixed-range histogram with interpolated
// percentiles) and retains no per-row state. String columns pass
// through uncounted; Int and Float columns aggregate.
//
// Two Agg instances fed the same multiset of rows hold identical state
// regardless of append order (integer state only), so a fleet run's
// aggregate JSON is byte-identical across worker counts. Appends must
// still come from one goroutine at a time; order-independence is a
// determinism property, not a data-race license.
type Agg struct {
	schema  Schema
	metrics []metricAgg // one per aggregated (Int/Float) column
	colIdx  []int       // metrics index per schema column, -1 for strings
	rows    int64
	begun   bool
}

// Begin fixes the schema and allocates per-column aggregate state.
func (a *Agg) Begin(s Schema) error {
	if a.begun {
		return fmt.Errorf("sink: Begin called twice on Agg %q", s.Name)
	}
	a.schema = s
	a.begun = true
	a.colIdx = make([]int, len(s.Cols))
	for i, col := range s.Cols {
		if col.Kind == String {
			a.colIdx[i] = -1
			continue
		}
		m := metricAgg{col: col, min: math.MaxInt64, max: math.MinInt64}
		if col.HistBuckets > 0 {
			if !(col.HistHi > col.HistLo) {
				return fmt.Errorf("sink: column %q histogram range [%g, %g) is empty", col.Name, col.HistLo, col.HistHi)
			}
			m.hist = make([]int64, col.HistBuckets)
		}
		a.colIdx[i] = len(a.metrics)
		a.metrics = append(a.metrics, m)
	}
	return nil
}

// Append folds one row into the aggregates.
func (a *Agg) Append(row []Value) error {
	if !a.begun {
		return fmt.Errorf("sink: Append before Begin")
	}
	if len(row) != len(a.schema.Cols) {
		return fmt.Errorf("sink: row has %d cells, schema %q has %d columns", len(row), a.schema.Name, len(a.schema.Cols))
	}
	for i, col := range a.schema.Cols {
		mi := a.colIdx[i]
		if mi < 0 {
			continue
		}
		v := row[i].F
		if col.Kind == Int {
			v = float64(row[i].I)
		}
		m := &a.metrics[mi]
		micro := int64(math.Round(v * microScale))
		m.count++
		m.sum += micro
		if micro < m.min {
			m.min = micro
		}
		if micro > m.max {
			m.max = micro
		}
		if m.hist != nil {
			switch {
			case v < col.HistLo:
				m.under++
			case v >= col.HistHi:
				m.over++
			default:
				b := int((v - col.HistLo) / (col.HistHi - col.HistLo) * float64(len(m.hist)))
				if b >= len(m.hist) { // guard the v ≈ HistHi rounding edge
					b = len(m.hist) - 1
				}
				m.hist[b]++
			}
		}
	}
	a.rows++
	return nil
}

// Flush is a no-op: aggregates are always current.
func (a *Agg) Flush() error { return nil }

// HistSummary is the rendered fixed-range histogram: Counts[i] covers
// [Lo + i·w, Lo + (i+1)·w) with w = (Hi-Lo)/len(Counts); Under and Over
// count appends outside [Lo, Hi).
type HistSummary struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Under  int64   `json:"under,omitempty"`
	Over   int64   `json:"over,omitempty"`
	Counts []int64 `json:"counts"`
}

// MetricSummary is the rendered aggregate of one column. Every field
// derives from integer state, so equal multisets of appends render
// byte-identical JSON.
type MetricSummary struct {
	Name  string       `json:"name"`
	Unit  string       `json:"unit,omitempty"`
	Count int64        `json:"count"`
	Mean  float64      `json:"mean"`
	Min   float64      `json:"min"`
	Max   float64      `json:"max"`
	P50   float64      `json:"p50,omitempty"`
	P95   float64      `json:"p95,omitempty"`
	P99   float64      `json:"p99,omitempty"`
	Hist  *HistSummary `json:"hist,omitempty"`
}

// Summaries renders every aggregated column in schema order.
func (a *Agg) Summaries() []MetricSummary {
	out := make([]MetricSummary, 0, len(a.metrics))
	for i := range a.metrics {
		m := &a.metrics[i]
		s := MetricSummary{Name: m.col.Name, Unit: m.col.Unit, Count: m.count}
		if m.count > 0 {
			s.Mean = float64(m.sum) / float64(m.count) / microScale
			s.Min = float64(m.min) / microScale
			s.Max = float64(m.max) / microScale
		}
		if m.hist != nil {
			s.P50 = m.percentile(50)
			s.P95 = m.percentile(95)
			s.P99 = m.percentile(99)
			h := &HistSummary{Lo: m.col.HistLo, Hi: m.col.HistHi, Under: m.under, Over: m.over}
			h.Counts = append(h.Counts, m.hist...)
			s.Hist = h
		}
		out = append(out, s)
	}
	return out
}

// percentile interpolates the p-th percentile from the fixed-range
// histogram: find the bucket holding the nearest-rank sample and place
// it linearly within the bucket. Underflow clamps to the range floor,
// overflow to the observed maximum. The computation reads only integer
// counts and the fixed range, so it is append-order independent.
func (m *metricAgg) percentile(p float64) float64 {
	if m.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(m.count)))
	if rank < 1 {
		rank = 1
	}
	if rank <= m.under {
		return m.col.HistLo
	}
	cum := m.under
	width := (m.col.HistHi - m.col.HistLo) / float64(len(m.hist))
	for b, c := range m.hist {
		if rank <= cum+c {
			frac := float64(rank-cum) / float64(c)
			return m.col.HistLo + width*(float64(b)+frac)
		}
		cum += c
	}
	return float64(m.max) / microScale
}
