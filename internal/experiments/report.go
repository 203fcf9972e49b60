package experiments

import (
	"fmt"
	"strings"
)

// Report is the tabular output of one experiment, printable as a
// fixed-width table mirroring the corresponding table or figure of the
// paper.
type Report struct {
	// Name is the experiment identifier (e.g. "figure9").
	Name string
	// Title describes what the experiment reproduces.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, already formatted as strings.
	Rows [][]string
	// Notes records caveats and observations.
	Notes []string
}

// AddRow appends a row, formatting each value with %v (floats with 3
// decimals).
func (r *Report) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		case float32:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// AddNote appends a formatted note.
func (r *Report) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.Name, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
