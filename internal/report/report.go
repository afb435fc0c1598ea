// Package report renders experiment results as aligned ASCII tables and
// CSV series, the formats cmd/repro uses to regenerate the paper's
// tables and figures.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends one row; values are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = width(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && width(c) > widths[i] {
				widths[i] = width(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// width is a string's display width in cells. Column math must count
// runes, not bytes: "Côte d'Ivoire" is 14 cells but 15 bytes, and
// byte-based padding skews every column after a non-ASCII label.
func width(s string) int {
	return utf8.RuneCountInString(s)
}

func pad(s string, w int) string {
	if width(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-width(s))
}

// Series is a named sequence of (x, y) points — one figure line.
type Series struct {
	Name   string
	Points [][2]float64
}

// WriteCSV writes one or more series as long-format CSV
// (series,x,y per line) for external plotting.
func WriteCSV(w io.Writer, series ...Series) error {
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", s.Name, p[0], p[1]); err != nil {
				return err
			}
		}
	}
	return nil
}
