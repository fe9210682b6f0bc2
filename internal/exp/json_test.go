package exp

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestTableJSON(t *testing.T) {
	tab, err := Validation()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID     string              `json:"id"`
		Header []string            `json:"header"`
		Rows   []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "valid" || len(decoded.Rows) != len(tab.Rows) {
		t.Fatalf("decoded = %+v", decoded)
	}
	// Rows are keyed by header names.
	if _, ok := decoded.Rows[0]["Accuracy"]; !ok {
		t.Fatalf("row keys = %v", decoded.Rows[0])
	}
}

// TestTableJSONRagged pins the JSON shape of a ragged table: a cell
// beyond the header lands under a generated colN key, and a row shorter
// than the widest one reads "" for its missing cells.
func TestTableJSONRagged(t *testing.T) {
	tab := Table{
		ID:     "rg",
		Header: []string{"A"},
		Rows:   [][]string{{"x", "extra"}, {"y"}},
	}
	b, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Rows []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	want := []map[string]string{{"A": "x", "col1": "extra"}, {"A": "y", "col1": ""}}
	if !reflect.DeepEqual(decoded.Rows, want) {
		t.Errorf("rows = %v, want %v", decoded.Rows, want)
	}
}

func TestAllTablesSerializable(t *testing.T) {
	for _, e := range FullRegistry() {
		tab, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if _, err := tab.JSON(); err != nil {
			t.Errorf("%s: JSON: %v", e.ID, err)
		}
	}
}
