package sink

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// The constructors and accessors below are test-only: the figures and
// the fleet fold write float and string cells, read whole aggregates, and
// feed one sink at a time.

// IntV wraps an integer cell.
func IntV(i int64) Value { return Value{I: i} }

// IntAt returns the integer cell at (column, row).
func (c *Columns) IntAt(col, row int) int64 { return c.ints[col][row] }

// FloatAt returns the float cell at (column, row).
func (c *Columns) FloatAt(col, row int) float64 { return c.floats[col][row] }

// Tee fans one row stream out to several sinks in order.
type Tee struct {
	Sinks []Sink
}

// Begin forwards the schema to every sink.
func (t Tee) Begin(s Schema) error {
	for _, snk := range t.Sinks {
		if err := snk.Begin(s); err != nil {
			return err
		}
	}
	return nil
}

// Append forwards the row to every sink.
func (t Tee) Append(row []Value) error {
	for _, snk := range t.Sinks {
		if err := snk.Append(row); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes every sink.
func (t Tee) Flush() error {
	for _, snk := range t.Sinks {
		if err := snk.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the appended row count.
func (a *Agg) Rows() int64 { return a.rows }

func testSchema() Schema {
	return Schema{
		Name: "test",
		Cols: []Column{
			{Name: "label", Kind: String},
			{Name: "n", Kind: Int},
			{Name: "impact", Kind: Float, Unit: "pct", HistLo: 0, HistHi: 100, HistBuckets: 50},
		},
	}
}

func TestColumnsRoundTrip(t *testing.T) {
	var c Columns
	if err := c.Begin(testSchema()); err != nil {
		t.Fatal(err)
	}
	rows := [][]Value{
		{Str("a"), IntV(1), FloatV(12.5)},
		{Str("b"), IntV(2), FloatV(37.5)},
	}
	for _, r := range rows {
		if err := c.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", c.Rows())
	}
	if got := c.StringAt(0, 1); got != "b" {
		t.Errorf("StringAt(0,1) = %q, want b", got)
	}
	if got := c.IntAt(1, 0); got != 1 {
		t.Errorf("IntAt(1,0) = %d, want 1", got)
	}
	if got := c.FloatAt(2, 1); got != 37.5 {
		t.Errorf("FloatAt(2,1) = %g, want 37.5", got)
	}
}

func TestColumnsRowWidthMismatch(t *testing.T) {
	var c Columns
	if err := c.Begin(testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([]Value{Str("short")}); err == nil {
		t.Fatal("short row accepted")
	}
	var d Columns
	if err := d.Append([]Value{Str("x")}); err == nil {
		t.Fatal("Append before Begin accepted")
	}
}

// TestAggOrderIndependence pins the load-bearing property: any
// permutation of the same rows produces byte-identical aggregate JSON.
func TestAggOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]Value, 500)
	for i := range rows {
		rows[i] = []Value{Str("d"), IntV(int64(i % 7)), FloatV(rng.Float64() * 110)} // some overflow the [0,100) range
	}

	render := func(perm []int) []byte {
		var a Agg
		if err := a.Begin(testSchema()); err != nil {
			t.Fatal(err)
		}
		for _, i := range perm {
			if err := a.Append(rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		b, err := json.Marshal(a.Summaries())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	fwd := make([]int, len(rows))
	for i := range fwd {
		fwd[i] = i
	}
	want := render(fwd)
	for trial := 0; trial < 3; trial++ {
		perm := rng.Perm(len(rows))
		if got := render(perm); string(got) != string(want) {
			t.Fatalf("trial %d: permuted aggregate differs:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

func TestAggPercentiles(t *testing.T) {
	var a Agg
	s := Schema{Name: "p", Cols: []Column{{Name: "v", Kind: Float, HistLo: 0, HistHi: 100, HistBuckets: 100}}}
	if err := a.Begin(s); err != nil {
		t.Fatal(err)
	}
	// Values 0.5, 1.5, ..., 99.5: one per bucket.
	for i := 0; i < 100; i++ {
		if err := a.Append([]Value{FloatV(float64(i) + 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	sum := a.Summaries()[0]
	if sum.Count != 100 {
		t.Fatalf("count = %d, want 100", sum.Count)
	}
	if sum.Mean != 50 {
		t.Errorf("mean = %g, want 50", sum.Mean)
	}
	// Nearest-rank sample 50 lives in bucket 49; interpolation lands at
	// the bucket's upper edge.
	if sum.P50 != 50 {
		t.Errorf("p50 = %g, want 50", sum.P50)
	}
	if sum.P99 != 99 {
		t.Errorf("p99 = %g, want 99", sum.P99)
	}
	if sum.Min != 0.5 || sum.Max != 99.5 {
		t.Errorf("min/max = %g/%g, want 0.5/99.5", sum.Min, sum.Max)
	}
}

func TestAggOutOfRange(t *testing.T) {
	var a Agg
	s := Schema{Name: "o", Cols: []Column{{Name: "v", Kind: Float, HistLo: 0, HistHi: 10, HistBuckets: 10}}}
	if err := a.Begin(s); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-5, 5, 25} {
		if err := a.Append([]Value{FloatV(v)}); err != nil {
			t.Fatal(err)
		}
	}
	sum := a.Summaries()[0]
	if sum.Hist.Under != 1 || sum.Hist.Over != 1 {
		t.Fatalf("under/over = %d/%d, want 1/1", sum.Hist.Under, sum.Hist.Over)
	}
	// p99 rank lands in the overflow; it clamps to the observed max.
	if sum.P99 != 25 {
		t.Errorf("p99 = %g, want observed max 25", sum.P99)
	}
}

func TestTeeFansOut(t *testing.T) {
	var c Columns
	var a Agg
	tee := Tee{Sinks: []Sink{&c, &a}}
	if err := tee.Begin(testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := tee.Append([]Value{Str("x"), IntV(3), FloatV(9)}); err != nil {
		t.Fatal(err)
	}
	if err := tee.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 1 || a.Rows() != 1 {
		t.Fatalf("rows = %d/%d, want 1/1", c.Rows(), a.Rows())
	}
}
