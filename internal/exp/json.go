package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// jsonTable is the machine-readable form of a Table.
type jsonTable struct {
	ID     string              `json:"id"`
	Title  string              `json:"title"`
	Header []string            `json:"header"`
	Rows   []map[string]string `json:"rows"`
	Notes  []string            `json:"notes,omitempty"`
}

// JSON renders the table as indented JSON with rows keyed by column name,
// so downstream tooling (plots, dashboards) can consume experiment
// results without screen-scraping the text tables. Every row carries
// every column of the widest row: a cell beyond the header is keyed
// colN (N its zero-based column), and a missing cell is "".
func (t Table) JSON() ([]byte, error) {
	width := len(t.Header)
	for _, cells := range t.Rows {
		width = max(width, len(cells))
	}
	names := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprintf("col%d", i)
		if i < len(t.Header) {
			names[i] = t.Header[i]
		}
	}
	jt := jsonTable{ID: t.ID, Title: t.Title, Header: t.Header, Notes: t.Notes}
	for _, cells := range t.Rows {
		m := make(map[string]string, width)
		for i, name := range names {
			m[name] = ""
			if i < len(cells) {
				m[name] = cells[i]
			}
		}
		jt.Rows = append(jt.Rows, m)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(jt); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
