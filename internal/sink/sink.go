// Package sink is the repository's columnar result layer: a schema'd,
// append-only row stream that replaces "one JSON blob per run" as the
// shape results flow through. A producer declares a Schema (named,
// typed columns), appends rows, and flushes; what happens to the rows
// is the sink's business — the in-memory Columns store keeps them
// column-wise for table and JSON rendering, while Agg retains no rows
// at all and folds every append into order-independent aggregates
// (counts, fixed-point sums, min/max, fixed-range histograms).
//
// The design constraint throughout is bit-identity: a fleet run fans
// devices out over a worker pool, so aggregate state must not depend on
// append order or worker count. Agg therefore quantizes floats to
// integer micro-units and keeps only commutative integer state; two
// runs that append the same multiset of rows produce byte-identical
// aggregate JSON no matter how the appends interleave.
package sink

import "fmt"

// Kind types a column.
type Kind int

// Column kinds.
const (
	String Kind = iota
	Int
	Float
)

// Column declares one schema column. Unit is a free-form hint consumers
// may use for formatting ("mw", "pct", "h"); it does not affect sink
// semantics. HistLo/HistHi/HistBuckets, when HistBuckets > 0, ask
// aggregating sinks to histogram the column over that fixed range —
// fixed bounds are what keep bucket assignment independent of data
// order.
type Column struct {
	Name string
	Kind Kind
	Unit string
	// Histogram request for aggregating sinks (Float and Int columns).
	HistLo, HistHi float64
	HistBuckets    int
}

// Schema names a row stream and declares its columns.
type Schema struct {
	Name string
	Cols []Column
}

// Value is one cell: exactly one field is meaningful, selected by the
// column's Kind.
type Value struct {
	S string
	I int64
	F float64
}

// Str wraps a string cell.
func Str(s string) Value { return Value{S: s} }

// FloatV wraps a float cell.
func FloatV(f float64) Value { return Value{F: f} }

// Sink consumes a schema'd row stream. Begin must be called once before
// any Append; Flush ends the stream. Append takes ownership of nothing:
// rows may be reused by the caller after the call returns.
type Sink interface {
	Begin(Schema) error
	Append(row []Value) error
	Flush() error
}

// Columns is the in-memory columnar store: an append-only Sink that
// keeps each column as its own typed slice. It is the bridge between
// the row-stream producers (experiments, the fleet executor) and
// consumers that want whole columns (table rendering, JSON emission).
type Columns struct {
	Schema Schema
	strs   [][]string
	ints   [][]int64
	floats [][]float64
	rows   int
	begun  bool
}

// Begin fixes the schema and allocates the column stores.
func (c *Columns) Begin(s Schema) error {
	if c.begun {
		return fmt.Errorf("sink: Begin called twice on Columns %q", s.Name)
	}
	c.Schema = s
	c.begun = true
	c.strs = make([][]string, len(s.Cols))
	c.ints = make([][]int64, len(s.Cols))
	c.floats = make([][]float64, len(s.Cols))
	return nil
}

// Append adds one row, column by column.
func (c *Columns) Append(row []Value) error {
	if !c.begun {
		return fmt.Errorf("sink: Append before Begin")
	}
	if len(row) != len(c.Schema.Cols) {
		return fmt.Errorf("sink: row has %d cells, schema %q has %d columns", len(row), c.Schema.Name, len(c.Schema.Cols))
	}
	for i, col := range c.Schema.Cols {
		switch col.Kind {
		case String:
			c.strs[i] = append(c.strs[i], row[i].S)
		case Int:
			c.ints[i] = append(c.ints[i], row[i].I)
		default:
			c.floats[i] = append(c.floats[i], row[i].F)
		}
	}
	c.rows++
	return nil
}

// Flush is a no-op for the in-memory store.
func (c *Columns) Flush() error { return nil }

// Rows returns the appended row count.
func (c *Columns) Rows() int { return c.rows }

// StringAt returns the string cell at (column, row).
func (c *Columns) StringAt(col, row int) string { return c.strs[col][row] }
