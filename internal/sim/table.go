// Package sim is the experiment harness: it assembles the full pipeline
// (synthetic city → trusted server → adversarial service provider),
// runs the parameter sweeps of DESIGN.md's experiment index (E2–E8,
// E11–E14) and the E-comp approach comparison, and renders the result
// tables that EXPERIMENTS.md records. E1, E9 and E10 are timings, so
// they are `go test -bench` targets (bench_test.go), not tables.
package sim

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier, e.g. "E2".
	ID string
	// Title describes the sweep.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the pre-formatted cells.
	Rows [][]string
	// Notes comments on how to read the numbers.
	Notes string
}

// AddRow appends a row of values formatted with %v (floats with %.3g).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case float32:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned plain-text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	fmt.Fprintln(w, line(t.Columns))
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, line(rule))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Markdown renders the table as GitHub-flavored markdown (used to
// refresh EXPERIMENTS.md).
func (t *Table) Markdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "\n*%s*\n", t.Notes)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
