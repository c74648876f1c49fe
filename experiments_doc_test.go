package lcsim

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsMatchRecords checks the numbers EXPERIMENTS.md restates
// by hand against the results-of-record files they come from: Table 3's
// measured row (results/example1.txt), Table 5's GA and MC mean/σ
// columns (results/example3_table5.txt) and Figure 6's mean, σ, error
// and KS rows (results/example2_figure6.txt). Each restated number must
// lie within half a unit of its last printed digit of the file's value,
// so 349.85 may read 349.8. The timing tables (Figure 5, Table 4) are
// not results of record and are left out.
func TestExperimentsMatchRecords(t *testing.T) {
	doc := readLines(t, "EXPERIMENTS.md")

	t.Run("table3", func(t *testing.T) {
		src := readLines(t, "results/example1.txt")
		sec := docSection(t, doc, "### Table 3")
		restated(t, "p", cellNumbers(t, docRow(t, sec, "p")[1:]), fieldNumbers(t, srcLine(t, src, "p ")[1:]))
		restated(t, "measured", cellNumbers(t, docRow(t, sec, "measured")[1:]), fieldNumbers(t, srcLine(t, src, "pole ")[1:]))
	})

	t.Run("table5", func(t *testing.T) {
		src := readLines(t, "results/example3_table5.txt")
		// Each circuit is a GA line (circuit, stages, std(DL), std(VT),
		// "GA", mean, σ) followed by an MC line ("MC", mean, σ).
		var names []string
		var want [][]float64 // stages, std(DL), std(VT), GA mean, GA σ, MC mean, MC σ
		for i, l := range src {
			f := strings.Fields(l)
			if len(f) != 7 || f[4] != "GA" {
				continue
			}
			mc := strings.Fields(src[i+1])
			if len(mc) != 3 || mc[0] != "MC" {
				t.Fatalf("results/example3_table5.txt: no MC line after %q", l)
			}
			names = append(names, f[0])
			want = append(want, fieldNumbers(t, []string{f[1], f[2], f[3], f[5], f[6], mc[1], mc[2]}))
		}
		nameRE := regexp.MustCompile(`^(\w+) \((\d+)\)$`)
		i := 0
		for _, l := range docSection(t, doc, "### Table 5") {
			c := cells(l)
			if len(c) != 5 {
				continue
			}
			m := nameRE.FindStringSubmatch(c[0])
			if m == nil {
				continue
			}
			if i == len(want) {
				t.Fatalf("EXPERIMENTS.md restates more Table 5 rows than the record's %d", len(want))
			}
			if m[1] != names[i] {
				t.Fatalf("Table 5 row %d: EXPERIMENTS.md reads %s, the record %s", i+1, m[1], names[i])
			}
			restated(t, c[0], cellNumbers(t, []string{m[2], c[1], c[2], c[3]}), want[i])
			i++
		}
		if i != len(want) || i == 0 {
			t.Fatalf("EXPERIMENTS.md restates %d Table 5 rows, the record has %d", i, len(want))
		}
	})

	t.Run("figure6", func(t *testing.T) {
		src := strings.Join(readLines(t, "results/example2_figure6.txt"), "\n")
		m := regexp.MustCompile(`framework: mean=(\S+) ps std=(\S+) ps\nreference: mean=(\S+) ps std=(\S+) ps\nmean err (\S+)%\s+std err (\S+)%\s+KS (\S+)`).FindStringSubmatch(src)
		if m == nil {
			t.Fatal("results/example2_figure6.txt: no mean/std/error/KS block")
		}
		v := fieldNumbers(t, m[1:])
		sec := docSection(t, doc, "### Figure 6")
		restated(t, "mean", cellNumbers(t, docRow(t, sec, "mean")[2:]), []float64{v[0], v[2], v[4]})
		restated(t, "σ", cellNumbers(t, docRow(t, sec, "σ")[2:]), []float64{v[1], v[3], v[5]})
		restated(t, "KS distance", cellNumbers(t, docRow(t, sec, "KS distance")[2:]), []float64{v[6]})
	})
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

// docSection returns the lines under the heading that starts with
// heading, up to the next heading.
func docSection(t *testing.T, doc []string, heading string) []string {
	t.Helper()
	for i, l := range doc {
		if !strings.HasPrefix(l, heading) {
			continue
		}
		for j := i + 1; j < len(doc); j++ {
			if strings.HasPrefix(doc[j], "#") {
				return doc[i+1 : j]
			}
		}
		return doc[i+1:]
	}
	t.Fatalf("EXPERIMENTS.md: no %q section", heading)
	return nil
}

// cells splits a markdown table row into its trimmed cells.
func cells(l string) []string {
	if !strings.HasPrefix(l, "|") {
		return nil
	}
	c := strings.Split(strings.Trim(l, "| "), "|")
	for i := range c {
		c[i] = strings.TrimSpace(c[i])
	}
	return c
}

// docRow returns the cells of the table row whose first cell is key.
func docRow(t *testing.T, sec []string, key string) []string {
	t.Helper()
	for _, l := range sec {
		if c := cells(l); len(c) > 0 && c[0] == key {
			return c
		}
	}
	t.Fatalf("EXPERIMENTS.md: no %q row", key)
	return nil
}

func srcLine(t *testing.T, src []string, prefix string) []string {
	t.Helper()
	for _, l := range src {
		if strings.HasPrefix(l, prefix) {
			return strings.Fields(l)
		}
	}
	t.Fatalf("no line starting %q", prefix)
	return nil
}

func fieldNumbers(t *testing.T, fields []string) []float64 {
	t.Helper()
	xs := make([]float64, len(fields))
	for i, f := range fields {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = x
	}
	return xs
}

// printed is a number as EXPERIMENTS.md prints it: its text, its value
// and half a unit of its last printed digit.
type printed struct {
	text string
	x    float64
	half float64
}

var numberRE = regexp.MustCompile(`\d+(?:\.(\d*))?(?:[eE]([-+]?\d+))?`)

// cellNumbers returns every number printed in the cells, in order.
func cellNumbers(t *testing.T, cs []string) []printed {
	t.Helper()
	var ps []printed
	for _, c := range cs {
		for _, m := range numberRE.FindAllStringSubmatch(c, -1) {
			x, err := strconv.ParseFloat(m[0], 64)
			if err != nil {
				t.Fatal(err)
			}
			exp := 0
			if m[2] != "" {
				if exp, err = strconv.Atoi(m[2]); err != nil {
					t.Fatal(err)
				}
			}
			ps = append(ps, printed{m[0], x, 0.5 * math.Pow(10, float64(exp-len(m[1])))})
		}
	}
	return ps
}

// restated fails unless got restates want number for number, each
// within half a unit of its last printed digit.
func restated(t *testing.T, label string, got []printed, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: EXPERIMENTS.md prints %d numbers, the record has %d", label, len(got), len(want))
	}
	for i, p := range got {
		if math.Abs(p.x-want[i]) > p.half*(1+1e-9) {
			t.Errorf("%s: EXPERIMENTS.md reads %s, the record %g", label, p.text, want[i])
		}
	}
}
