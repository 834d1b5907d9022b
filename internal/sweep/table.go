package sweep

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple aligned text table used to render every experiment's
// output in the same rows/columns the paper reports.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	// Every line is built in this one buffer and written whole.
	buf := make([]byte, 0, total+1)
	if t.Title != "" {
		buf = append(append(buf, t.Title...), '\n')
		w.Write(buf)
	}
	line := func(cells []string) {
		buf = buf[:0]
		for i, c := range cells {
			if i > 0 {
				buf = append(buf, "  "...)
			}
			buf = append(buf, c...)
			if i < len(widths) {
				// widths count bytes, padding counts runes (as %-*s did): a
				// column holding a "±" cell comes out one wider than it.
				for pad := widths[i] - utf8.RuneCountInString(c); pad > 0; pad-- {
					buf = append(buf, ' ')
				}
			}
		}
		buf = append(bytes.TrimRight(buf, " "), '\n')
		w.Write(buf)
	}
	line(t.Headers)
	buf = buf[:0]
	for i := 0; i < total; i++ {
		buf = append(buf, '-')
	}
	w.Write(append(buf, '\n'))
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table to a string (the form the HTTP sweep-result
// endpoint embeds).
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// F formats an accuracy/metric for table cells.
func F(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
