package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of the Prometheus text
// exposition format this package writes.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): families sorted by name, one
// HELP/TYPE header per family, instances sorted by label set.
// Histograms expand into the conventional _bucket/_sum/_count series
// with cumulative le buckets ending at +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()

	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		var err error
		switch f.typ {
		case "counter":
			err = writeScalarSamples(w, name, instanceLabels(r.counters, name), func(k metricKey) string {
				return strconv.FormatInt(r.counters[k].Value(), 10)
			})
		case "gauge":
			merged := append(instanceLabels(r.gauges, name), instanceLabels(r.gaugeFuncs, name)...)
			sort.Strings(merged)
			merged = slices.Compact(merged)
			err = writeScalarSamples(w, name, merged, func(k metricKey) string {
				if fn, ok := r.gaugeFuncs[k]; ok {
					return strconv.FormatInt(fn(), 10)
				}
				return strconv.FormatInt(r.gauges[k].Value(), 10)
			})
		case "histogram":
			err = r.writeHistogramSamples(w, name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// instanceLabels collects the sorted label strings of one family's
// instances in m.
func instanceLabels[V any](m map[metricKey]V, name string) []string {
	var out []string
	for k := range m {
		if k.name == name {
			out = append(out, k.labels)
		}
	}
	sort.Strings(out)
	return out
}

// writeScalarSamples emits one sample line per instance.
func writeScalarSamples(w io.Writer, name string, labels []string, value func(metricKey) string) error {
	for _, ls := range labels {
		if _, err := fmt.Fprintf(w, "%s%s %s\n", name, braced(ls), value(metricKey{name: name, labels: ls})); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramSamples emits the _bucket/_sum/_count expansion of
// every instance of the family.
func (r *Registry) writeHistogramSamples(w io.Writer, name string) error {
	for _, ls := range instanceLabels(r.hists, name) {
		s := r.hists[metricKey{name: name, labels: ls}].Snapshot()
		for i, bound := range s.Bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				name, braced(withLabel(ls, "le", formatBound(bound))), s.Cumulative[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, braced(withLabel(ls, "le", "+Inf")), s.Cumulative[len(s.Cumulative)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, braced(ls), s.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced(ls), s.Cumulative[len(s.Cumulative)-1]); err != nil {
			return err
		}
	}
	return nil
}

// braced wraps a rendered label set in {}; empty label sets render as
// nothing.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// withLabel appends one more label to a rendered label set. le sorts
// after every label the registry uses on histograms (cache, kind, op),
// and appending keeps the instance's own labels in their canonical
// order either way.
func withLabel(labels, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// formatBound renders a bucket bound (ns) as the le label value.
func formatBound(b int64) string { return strconv.FormatInt(b, 10) }

// escapeHelp escapes a HELP text: backslash and newline only (quotes
// are legal in help text).
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	h = strings.ReplaceAll(h, "\n", `\n`)
	return h
}

// Relabel appends src's samples to e, each carrying one more label
// name=value (replacing any label of that name src already set), and
// adopts src's TYPE declarations. It is how a fleet exposition keeps
// each source's series apart instead of summing them. A family src
// declares with a different TYPE than e already holds is an error; src
// is consumed (its label maps are reused).
func (e *Exposition) Relabel(src *Exposition, name, value string) error {
	for fam, typ := range src.Types {
		if have, ok := e.Types[fam]; ok && have != typ {
			return fmt.Errorf("obs: family %s declared %s, but an earlier source declared it %s", fam, typ, have)
		}
		e.Types[fam] = typ
	}
	for _, s := range src.Samples {
		s.Labels[name] = value
		e.Samples = append(e.Samples, s)
	}
	return nil
}

// WriteText renders a parsed exposition in the text format: families
// sorted by name, one TYPE line each, followed by that family's
// samples contiguous and in their parsed order, labels sorted.
func (e *Exposition) WriteText(w io.Writer) error {
	byFam := make(map[string][]Sample, len(e.Types))
	fams := make([]string, 0, len(e.Types))
	for fam := range e.Types {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, s := range e.Samples {
		fam := familyOf(s.Name, e.Types)
		byFam[fam] = append(byFam[fam], s)
	}
	bw := bufio.NewWriter(w)
	for _, fam := range fams {
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, e.Types[fam])
		for _, s := range byFam[fam] {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var ls strings.Builder
			for i, k := range keys {
				if i > 0 {
					ls.WriteByte(',')
				}
				fmt.Fprintf(&ls, `%s="%s"`, k, escapeLabel(s.Labels[k]))
			}
			fmt.Fprintf(bw, "%s%s %s\n", s.Name, braced(ls.String()), formatValue(s.Value))
		}
	}
	return bw.Flush()
}

// formatValue renders a sample value so ParseExposition reads back the
// same float: integral values below 1e15 (every counter and gauge the
// registry writes) in plain digits, everything else — fractions, huge
// magnitudes, ±Inf, NaN — in the shortest 'g' form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
