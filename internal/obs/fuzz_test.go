package obs

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzParseExposition: scraped expositions come from other processes
// (the router parses every shard's /metrics), so ParseExposition must
// never panic on arbitrary text, every sample it accepts must be
// well-named and belong to a declared family, and WriteText must
// re-render what it accepts to text that parses back to the same types
// and samples, grouped by family in their original in-family order.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("repro_fuzz_total", "a counter", "kind", "spider").Add(3)
	r.Gauge("repro_fuzz_depth", "a gauge").Set(-2)
	r.Histogram("repro_fuzz_ns", "a histogram", "op", `min "makespan"`).Observe(1500)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# TYPE x counter\nx{a=\"b\\\\\",c=\"\\n\"} +Inf\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n")
	f.Add("x 1\n")
	f.Add("# TYPE y gauge\ny{a=\"unterminated} 1\n")
	f.Add("# TYPE z untyped\nz -Inf\nz NaN\nz 1e300\nz 0x1p-2\nz 123456789\n")
	f.Fuzz(func(t *testing.T, text string) {
		e, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, s := range e.Samples {
			if !metricName.MatchString(s.Name) {
				t.Fatalf("accepted sample with invalid name %q", s.Name)
			}
			if familyOf(s.Name, e.Types) == "" {
				t.Fatalf("accepted sample %q without a TYPE declaration", s.Name)
			}
		}

		var out bytes.Buffer
		if err := e.WriteText(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ParseExposition(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-rendered exposition does not parse: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(back.Types, e.Types) {
			t.Fatalf("types changed in the round trip: %v → %v", e.Types, back.Types)
		}
		want := slices.Clone(e.Samples)
		slices.SortStableFunc(want, func(a, b Sample) int {
			return strings.Compare(familyOf(a.Name, e.Types), familyOf(b.Name, e.Types))
		})
		if len(back.Samples) != len(want) {
			t.Fatalf("%d samples re-parsed, want %d", len(back.Samples), len(want))
		}
		for i, got := range back.Samples {
			w := want[i]
			sameValue := got.Value == w.Value || math.IsNaN(got.Value) && math.IsNaN(w.Value)
			if got.Name != w.Name || !reflect.DeepEqual(got.Labels, w.Labels) || !sameValue {
				t.Fatalf("sample %d changed in the round trip: %+v → %+v", i, w, got)
			}
		}
	})
}
