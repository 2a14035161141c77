package sim

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentTablesMatchDoc holds EXPERIMENTS.md to the code: it
// regenerates every deterministic experiment table and compares its
// rows with the first table under the experiment's heading there. A
// change that moves a decision any table reads fails here until the
// document is updated with it.
//
// E1, E9 and E10 are left out: they are timing tables, and their other
// columns are only each row's parameters.
func TestExperimentTablesMatchDoc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the experiments several-fold; CI runs this test without it")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		id  string
		run func() *Table
	}{
		{"E2", E2}, {"E3", E3}, {"E4", E4}, {"E5", E5}, {"E6", E6}, {"E7", E7},
		{"E8", E8}, {"E11", E11}, {"E12", E12}, {"E13", E13}, {"E14", E14},
		{"E-comp-frontier", ECompFrontier},
	}
	for _, r := range runs {
		t.Run(r.id, func(t *testing.T) {
			want, err := docTable(string(doc), r.id)
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := r.run().Markdown(&b); err != nil {
				t.Fatal(err)
			}
			got := tableRows(b.String())
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("EXPERIMENTS.md §%s row %d differs from the code's table:\ndoc:  %s\ncode: %s\n(the code renders %d rows, the doc has %d; refresh the doc with `go run ./cmd/lbbench -md -e %s`)",
						r.id, i, w, g, len(got), len(want), r.id)
				}
			}
		})
	}
}

// tableRows returns the markdown table lines of s: those starting with
// '|'.
func tableRows(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "|") {
			out = append(out, line)
		}
	}
	return out
}

// docTable returns the rows of the first table under id's `##` or `###`
// heading in doc, before the next heading.
func docTable(doc, id string) ([]string, error) {
	head := regexp.MustCompile(`(?m)^##+ ` + regexp.QuoteMeta(id) + `( |$)`)
	loc := head.FindStringIndex(doc)
	if loc == nil {
		return nil, fmt.Errorf("EXPERIMENTS.md has no heading for %s", id)
	}
	var rows []string
	for _, line := range strings.Split(doc[loc[1]:], "\n") {
		switch {
		case strings.HasPrefix(line, "|"):
			rows = append(rows, line)
		case len(rows) > 0:
			return rows, nil
		case strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("EXPERIMENTS.md §%s has no table before the next heading", id)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("EXPERIMENTS.md §%s has no table", id)
	}
	return rows, nil
}
