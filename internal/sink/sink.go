// Package sink is the repository's columnar result layer: a schema'd,
// append-only row stream that replaces "one JSON blob per run" as the
// shape results flow through. A producer declares a Schema (named,
// typed columns), appends rows, and flushes; what happens to the rows
// is the sink's business — Agg, the fleet fold, retains no rows at all
// and folds every append into order-independent aggregates (counts,
// fixed-point sums, min/max, fixed-range histograms).
//
// The design constraint throughout is bit-identity: a fleet run fans
// devices out over a worker pool, so aggregate state must not depend on
// append order or worker count. Agg therefore quantizes floats to
// integer micro-units and keeps only commutative integer state; two
// runs that append the same multiset of rows produce byte-identical
// aggregate JSON no matter how the appends interleave.
package sink

// Kind types a column.
type Kind int

// Column kinds.
const (
	String Kind = iota
	Int
	Float
)

// Column declares one schema column. Unit is a free-form hint ("mw",
// "pct", "h") that Agg copies into its summaries; it does not affect
// sink semantics. HistLo/HistHi/HistBuckets, when HistBuckets > 0, ask
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
