package exp

import (
	"strings"
	"testing"

	"burstlink/internal/sink"
)

func TestTableSinkFormatsUnits(t *testing.T) {
	var tab Table
	ts := &TableSink{T: &tab}
	err := ts.Begin(sink.Schema{Name: "t", Cols: []sink.Column{
		{Name: "Name", Kind: sink.String},
		{Name: "N", Kind: sink.Int},
		{Name: "Power", Kind: sink.Float, Unit: UnitMW},
		{Name: "Saving", Kind: sink.Float, Unit: UnitFrac},
		{Name: "Hours", Kind: sink.Float, Unit: UnitHours},
		{Name: "Raw", Kind: sink.Float},
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = ts.Append([]sink.Value{
		sink.Str("seg"), {I: 7}, sink.FloatV(412.4), sink.FloatV(0.234), sink.FloatV(3), sink.FloatV(1.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{"seg", "7", "412 mW", "23.4%", "3", "1.5"}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	for i, cell := range tab.Rows[0] {
		if cell != want[i] {
			t.Errorf("cell %d = %q, want %q", i, cell, want[i])
		}
	}
	if tab.Header[2] != "Power" {
		t.Errorf("header = %v", tab.Header)
	}
}

func TestTableSinkErrors(t *testing.T) {
	var tab Table
	ts := &TableSink{T: &tab}
	if err := ts.Append([]sink.Value{sink.Str("x")}); err == nil {
		t.Fatal("Append before Begin accepted")
	}
	s := sink.Schema{Name: "t", Cols: []sink.Column{{Name: "A", Kind: sink.String}}}
	if err := ts.Begin(s); err != nil {
		t.Fatal(err)
	}
	if err := ts.Begin(s); err == nil {
		t.Fatal("double Begin accepted")
	}
	if err := ts.Append([]sink.Value{sink.Str("a"), sink.Str("b")}); err == nil {
		t.Fatal("wide row accepted")
	}
	if err := (&TableSink{}).Begin(s); err == nil {
		t.Fatal("TableSink without a Table accepted Begin")
	}
}

func TestTableStreamRoundTrip(t *testing.T) {
	tab := Table{
		ID:     "rt",
		Header: []string{"A", "B"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	var cols sink.Columns
	if err := tab.Stream(&cols); err != nil {
		t.Fatal(err)
	}
	if cols.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", cols.Rows())
	}
	if got := cols.StringAt(1, 1); got != "4" {
		t.Errorf("cell (1,1) = %q, want 4", got)
	}
	if cols.Schema.Cols[0].Name != "A" {
		t.Errorf("schema = %+v", cols.Schema)
	}
}

// TestTableStreamRagged pins the historical JSON behavior for rows wider
// than the header: extra cells land under generated colN names, and
// short rows pad with empty cells.
func TestTableStreamRagged(t *testing.T) {
	tab := Table{
		ID:     "rg",
		Header: []string{"A"},
		Rows:   [][]string{{"x", "extra"}, {"y"}},
	}
	var cols sink.Columns
	if err := tab.Stream(&cols); err != nil {
		t.Fatal(err)
	}
	if got := cols.Schema.Cols[1].Name; got != "col1" {
		t.Errorf("overflow column = %q, want col1", got)
	}
	if got := cols.StringAt(1, 1); got != "" {
		t.Errorf("padded cell = %q, want empty", got)
	}
	b, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"col1": "extra"`) {
		t.Errorf("JSON missing overflow key: %s", b)
	}
}
