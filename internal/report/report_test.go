package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
)

func TestTableRenderAlignsColumns(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Headers: []string{"name", "count"},
	}
	tbl.AddRow("short", 1)
	tbl.AddRow("a-much-longer-name", 12345)
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Fatalf("render has %d lines: %q", len(lines), out)
		}
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Fatal("title missing")
	}
	// The count column must start at the same offset in every data row.
	idx1 := strings.Index(lines[3], "1")
	idx2 := strings.Index(lines[4], "12345")
	if idx1 != idx2 {
		t.Fatalf("columns misaligned: %d vs %d\n%s", idx1, idx2, out)
	}
}

func TestTableAddRowFormatsFloats(t *testing.T) {
	tbl := &Table{Headers: []string{"v"}}
	tbl.AddRow(3.14159)
	tbl.AddRow(2.0)
	if tbl.Rows[0][0] != "3.1416" {
		t.Fatalf("float cell = %q", tbl.Rows[0][0])
	}
	if tbl.Rows[1][0] != "2" {
		t.Fatalf("integer-valued float cell = %q", tbl.Rows[1][0])
	}
}

func TestTableRenderWithoutTitle(t *testing.T) {
	tbl := &Table{Headers: []string{"a"}}
	tbl.AddRow("x")
	out := tbl.Render()
	if strings.HasPrefix(out, "\n") {
		t.Fatal("leading blank line without title")
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "x") {
		t.Fatal("content missing")
	}
}

func TestSeriesRender(t *testing.T) {
	s := &Series{
		Title:  "figure",
		XLabel: "hour",
		Cols:   []string{"a", "b"},
	}
	s.Add("1", 10, 0.5)
	s.Add("2", 20, 0.25)
	out := s.Render()
	for _, want := range []string{"figure", "hour", "a", "b", "10", "0.5", "0.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		give float64
		want string
	}{
		{give: 0, want: "0"},
		{give: 42, want: "42"},
		{give: -3, want: "-3"},
		{give: 0.5, want: "0.5"},
		{give: 0.123456, want: "0.1235"},
		{give: 1.9999999, want: "2"},
		{give: 10000, want: "10000"},
	}
	for _, tt := range tests {
		if got := FormatFloat(tt.give); got != tt.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{Headers: []string{"a", "b"}}
	tbl.AddRow("x", 1)
	tbl.AddRow("y,z", 2.5)
	var buf strings.Builder
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nx,1\n\"y,z\",2.5\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestTableMarshalJSON(t *testing.T) {
	tbl := &Table{Title: "t", Headers: []string{"a"}}
	tbl.AddRow(42)
	data, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"title":"t","headers":["a"],"rows":[["42"]]}`
	if string(data) != want {
		t.Fatalf("json = %s, want %s", data, want)
	}
}

func TestTableMarshalJSONEmptyRows(t *testing.T) {
	tbl := &Table{Headers: []string{"a"}}
	data, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"rows":[]`) {
		t.Fatalf("empty rows marshal: %s", data)
	}
}

func TestSeriesExportMatchesTable(t *testing.T) {
	s := &Series{Title: "f", XLabel: "x", Cols: []string{"y"}}
	s.Add("1", 0.5)
	var csvBuf strings.Builder
	if err := s.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if csvBuf.String() != "x,y\n1,0.5\n" {
		t.Fatalf("series csv = %q", csvBuf.String())
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"headers":["x","y"]`) {
		t.Fatalf("series json = %s", data)
	}
}

func TestExportEmbedsMetricsSnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("ph_test_total", "test counter").Add(5)
	reg.Histogram("ph_test_seconds", "test latency", nil).Observe(0.25)

	tbl := &Table{Title: "T", Headers: []string{"a"}}
	tbl.AddRow("x")
	var buf bytes.Buffer
	if err := NewExport([]*Table{tbl}, reg).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Tables []struct {
			Title string `json:"title"`
		} `json:"tables"`
		Metrics []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export JSON invalid: %v", err)
	}
	if len(decoded.Tables) != 1 || decoded.Tables[0].Title != "T" {
		t.Fatalf("tables = %+v", decoded.Tables)
	}
	names := make(map[string]string)
	for _, m := range decoded.Metrics {
		names[m.Name] = m.Type
	}
	if names["ph_test_total"] != "counter" || names["ph_test_seconds"] != "histogram" {
		t.Fatalf("metrics section = %v", names)
	}

	// A nil registry omits the section entirely.
	buf.Reset()
	if err := NewExport([]*Table{tbl}, nil).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"metrics\"") {
		t.Fatal("nil-registry export still has a metrics section")
	}
}
