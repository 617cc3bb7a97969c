package main

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"openhire/internal/expr"
)

// docTables names the EXPERIMENTS.md sections whose measured column this
// test holds to the report, the experiment that renders each, and the
// prefix that turns a row's label into the report's key for it.
var docTables = []struct {
	heading string // the section's "## " heading, up to the first " —"
	run     func(*expr.World) expr.Result
	prefix  string
}{
	{"Table 4", expr.Table4, "exposed."},        // comparison metrics
	{"Table 5", expr.Table5, "misconfig."},      // comparison metrics
	{"Section 5.3 headline", expr.Headline, ""}, // artifact rows
}

// TestExperimentsDocMatchesReport: every row of EXPERIMENTS.md's Table 4,
// Table 5 and §5.3 split tables states the count openhire-report renders on
// the default world. A range cell such as 0–1 accepts any count inside it; a
// row the report leaves out (Table 5 omits empty classes) counts zero.
func TestExperimentsDocMatchesReport(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	w := expr.BuildWorld(expr.DefaultConfig())
	for _, dt := range docTables {
		got := renderedCounts(dt.run(w))
		rows := docTableRows(t, string(doc), dt.heading)
		if len(rows) == 0 {
			t.Fatalf("%s: no table rows in EXPERIMENTS.md", dt.heading)
		}
		for _, r := range rows {
			key := dt.prefix + r.label
			lo, hi, ok := parseCountCell(r.measured)
			if !ok {
				t.Errorf("%s %q: measured cell %q is not a count or a range", dt.heading, key, r.measured)
				continue
			}
			n, found := got[key]
			switch {
			case !found && lo > 0:
				t.Errorf("%s: EXPERIMENTS.md says %s, openhire-report renders no row %q", dt.heading, r.measured, key)
			case n < lo || n > hi:
				t.Errorf("%s %q: EXPERIMENTS.md says %s, openhire-report renders %v", dt.heading, key, r.measured, n)
			}
		}
	}
}

// cellGap separates the columns of a rendered report table.
var cellGap = regexp.MustCompile(`\s{2,}`)

// renderedCounts maps each comparison metric of r, and each row label of its
// rendered artifact (label, then count), to the measured count.
func renderedCounts(r expr.Result) map[string]float64 {
	got := make(map[string]float64)
	for _, c := range r.Comparisons {
		got[c.Metric] = c.Measured
	}
	for _, line := range strings.Split(r.Artifact, "\n") {
		cells := cellGap.Split(strings.TrimSpace(line), -1)
		if len(cells) < 2 {
			continue
		}
		if n, err := strconv.Atoi(strings.ReplaceAll(cells[1], ",", "")); err == nil {
			got[cells[0]] = float64(n)
		}
	}
	return got
}

// docRow is one body row of a markdown table: the non-empty cells before
// the paper column joined by ".", and the measured cell.
type docRow struct {
	label    string
	measured string
}

// docTableRows returns the body rows of the first table under the section
// whose heading starts with "## "+heading, with bold markers dropped.
func docTableRows(t *testing.T, doc, heading string) []docRow {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n## "+heading+" —")
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no section %q", heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var header []string
	var rows []docRow
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if header != nil {
				break // the table has ended
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(strings.ReplaceAll(cells[i], "**", ""))
		}
		switch {
		case header == nil:
			header = cells
		case strings.HasPrefix(cells[0], "---"):
		default:
			row := docRow{}
			for i, name := range header {
				switch {
				case strings.HasPrefix(name, "paper"):
					row.label = strings.Join(slices.DeleteFunc(slices.Clone(cells[:i]), func(c string) bool { return c == "" }), ".")
				case name == "measured":
					row.measured = cells[i]
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// parseCountCell reads "1,234" as [1234, 1234] and "0–1" as [0, 1].
func parseCountCell(cell string) (lo, hi float64, ok bool) {
	a, b, isRange := strings.Cut(cell, "–")
	if !isRange {
		b = a
	}
	l, err1 := strconv.Atoi(strings.ReplaceAll(a, ",", ""))
	h, err2 := strconv.Atoi(strings.ReplaceAll(b, ",", ""))
	return float64(l), float64(h), err1 == nil && err2 == nil && l <= h
}
