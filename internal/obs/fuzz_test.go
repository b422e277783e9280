package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseExposition: scraped expositions come from other processes
// (the router parses every shard's /metrics), so ParseExposition must
// never panic on arbitrary text, and every sample it accepts must be
// well-named and belong to a declared family.
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
	})
}
