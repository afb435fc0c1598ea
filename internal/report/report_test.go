package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("beta-long-name", 12.345)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns aligned: every "value" column starts at the same offset.
	hdrIdx := strings.Index(lines[1], "value")
	if hdrIdx < 0 {
		t.Fatal("header missing")
	}
	if !strings.Contains(lines[4], "12.3") {
		t.Fatalf("float not formatted: %q", lines[4])
	}
	if got := strings.Index(lines[3], "1"); got != hdrIdx {
		t.Fatalf("column misaligned: %d vs %d\n%s", got, hdrIdx, out)
	}
}

func TestTableAlignsUTF8Labels(t *testing.T) {
	// Accented country names are multi-byte but single-cell; padding by
	// byte length used to push every later column out of alignment on
	// the rows that contain them.
	tb := NewTable("Pays", "name", "value")
	tb.AddRow("Côte d'Ivoire", 1)
	tb.AddRow("Sao Tome 1234", 2) // same display width, pure ASCII
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	hdrIdx := strings.Index(lines[1], "value")
	for _, row := range lines[3:] {
		runes := []rune(row)
		got := -1
		for i := len(runes) - 1; i >= 0; i-- {
			if runes[i] != ' ' {
				got = i
				break
			}
		}
		if got != hdrIdx {
			t.Fatalf("value column at rune offset %d, want %d:\n%s", got, hdrIdx, out)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "==") {
		t.Fatal("empty title should not render a banner")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b,
		Series{Name: "s1", Points: [][2]float64{{1, 2}, {3, 4}}},
		Series{Name: "s2", Points: [][2]float64{{5, 6}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := "series,x,y\ns1,1,2\ns1,3,4\ns2,5,6\n"
	if b.String() != want {
		t.Fatalf("csv = %q", b.String())
	}
}
