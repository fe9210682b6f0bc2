package exp

import (
	"fmt"
	"strconv"

	"burstlink/internal/sink"
)

// This file bridges the experiment tables and the columnar sink layer in
// both directions. Producers (DayInLife, the fleet walkthroughs) declare
// a typed sink.Schema and append typed rows; TableSink renders that
// stream into a printable Table using the schema's unit hints, so the
// text output is byte-identical to the hand-formatted tables it
// replaced. Consumers go the other way: Table.Stream replays a finished
// table as a row stream into any sink.Sink, which is how Table.JSON
// rides the columnar store and how aggregating sinks can observe
// experiment output without a bespoke adapter per table.

// Unit hints TableSink knows how to format. Units are free-form strings
// on sink.Column; these are the conventions the experiment schemas use.
const (
	// UnitMW renders a float as whole milliwatts ("412 mW").
	UnitMW = "mw"
	// UnitFrac renders a fraction as a percentage ("23.4%").
	UnitFrac = "frac"
	// UnitHours renders whole hours ("3").
	UnitHours = "h"
)

// cellString formats one typed cell for table display using the
// column's kind and unit hint.
func cellString(col sink.Column, v sink.Value) string {
	switch col.Kind {
	case sink.String:
		return v.S
	case sink.Int:
		return strconv.FormatInt(v.I, 10)
	}
	switch col.Unit {
	case UnitMW:
		return mw(v.F)
	case UnitFrac:
		return pct(v.F)
	case UnitHours:
		return fmt.Sprintf("%.0f", v.F)
	default:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	}
}

// TableSink renders a typed row stream into the Table it wraps: the
// schema's column names become the header and every appended row is
// formatted with the schema's unit hints. It is how experiment drivers
// produce their printable tables through the same interface the fleet
// executor streams into.
type TableSink struct {
	T      *Table
	schema sink.Schema
	begun  bool
}

// Begin fixes the schema and installs the header.
func (ts *TableSink) Begin(s sink.Schema) error {
	if ts.begun {
		return fmt.Errorf("exp: Begin called twice on TableSink %q", s.Name)
	}
	if ts.T == nil {
		return fmt.Errorf("exp: TableSink has no Table")
	}
	ts.schema = s
	ts.begun = true
	header := make([]string, len(s.Cols))
	for i, col := range s.Cols {
		header[i] = col.Name
	}
	ts.T.Header = header
	return nil
}

// Append formats the row and adds it to the table.
func (ts *TableSink) Append(row []sink.Value) error {
	if !ts.begun {
		return fmt.Errorf("exp: Append before Begin")
	}
	if len(row) != len(ts.schema.Cols) {
		return fmt.Errorf("exp: row has %d cells, schema %q has %d columns", len(row), ts.schema.Name, len(ts.schema.Cols))
	}
	cells := make([]string, len(row))
	for i, col := range ts.schema.Cols {
		cells[i] = cellString(col, row[i])
	}
	ts.T.Rows = append(ts.T.Rows, cells)
	return nil
}

// Flush is a no-op: the table is always current.
func (ts *TableSink) Flush() error { return nil }

// Schema returns the table's column layout as a sink schema: one string
// column per header cell, plus anonymous columns when a row is wider
// than the header (ragged tables render extra cells under "colN" keys,
// matching what JSON has always emitted).
func (t Table) Schema() sink.Schema {
	width := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > width {
			width = len(row)
		}
	}
	s := sink.Schema{Name: t.ID, Cols: make([]sink.Column, width)}
	for i := range s.Cols {
		name := fmt.Sprintf("col%d", i)
		if i < len(t.Header) {
			name = t.Header[i]
		}
		s.Cols[i] = sink.Column{Name: name, Kind: sink.String}
	}
	return s
}

// Stream replays the finished table as a row stream: Begin with the
// table's schema, one Append per row (short rows pad with empty cells),
// then Flush. It is the consumer-side bridge — JSON rendering and any
// aggregating sink ride it instead of reaching into Rows.
func (t Table) Stream(snk sink.Sink) error {
	schema := t.Schema()
	if err := snk.Begin(schema); err != nil {
		return err
	}
	row := make([]sink.Value, len(schema.Cols))
	for _, cells := range t.Rows {
		for i := range row {
			row[i] = sink.Value{}
			if i < len(cells) {
				row[i] = sink.Str(cells[i])
			}
		}
		if err := snk.Append(row); err != nil {
			return err
		}
	}
	return snk.Flush()
}
