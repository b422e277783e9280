package experiments

import (
	"strings"
	"testing"
)

func TestTableFormatAlignsColumns(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col", "value"},
	}
	tbl.AddRow("a", 1)
	tbl.AddRow("longer", 123456)
	out := tbl.Format()
	for _, frag := range []string{"## demo", "a note", "col", "longer", "123456", "---"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Format missing %q:\n%s", frag, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, separator and rows share a width.
	var dataLines []string
	for _, l := range lines[2:] {
		dataLines = append(dataLines, l)
	}
	if len(dataLines) != 4 {
		t.Fatalf("expected 4 table lines, got %d:\n%s", len(dataLines), out)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tbl := Table{Header: []string{"a", "b"}}
	tbl.AddRow(`with"quote`, "with,comma")
	csv := tbl.CSV()
	if !strings.Contains(csv, `"with""quote"`) || !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("CSV quoting broken:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header broken:\n%s", csv)
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E6c"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("position %d: %s, want %s", i, all[i].ID, id)
		}
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("ByID(%q) missing", id)
			continue
		}
		if e.Name == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s incomplete: %+v", id, e)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestFig2Experiment(t *testing.T) {
	e, _ := ByID("E1")
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, frag := range []string{"Fig. 2", "optimal?", "true", "Gantt", "link 1", "proc 2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("E1 output missing %q", frag)
		}
	}
}

func TestFig6Experiment(t *testing.T) {
	e, _ := ByID("E2")
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	// (c=2,w=5): effective times 5,10,15,20,25.
	for _, frag := range []string{"5 + 0*5", "5 + 4*5", "25"} {
		if !strings.Contains(out, frag) {
			t.Errorf("E2 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig7Experiment(t *testing.T) {
	e, _ := ByID("E3")
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	if !strings.Contains(out, "virtual processing time") || !strings.Contains(out, "ok") {
		t.Errorf("E3 output incomplete:\n%s", out)
	}
}

func TestTheoremExperimentsReportZeroGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps skipped in -short mode")
	}
	// Small-scope versions keep the test quick while still running the
	// real code paths.
	rep, err := runTheorem1(2, 2, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	for _, row := range tbl.Rows {
		if row[2] != "0" {
			t.Errorf("E4 family %q has max gap %s", row[0], row[2])
		}
		if row[4] != "0" {
			t.Errorf("E4 family %q has %s infeasible schedules", row[0], row[4])
		}
	}

	forkRep, err := runForkValidation(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range forkRep.Tables {
		for _, row := range tbl.Rows {
			if row[2] != "0" {
				t.Errorf("E6 table %q row %v has mismatches", tbl.Title, row)
			}
		}
	}

	spiderRep, err := runTheorem3(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range spiderRep.Tables {
		for _, row := range tbl.Rows {
			if row[2] != "0" {
				t.Errorf("E7 table %q row %v has mismatches", tbl.Title, row)
			}
		}
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	rep, err := runBaselineComparison()
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Rows) != 12 { // 4 regimes x 3 heuristics
		t.Fatalf("E8 rows = %d, want 12", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// Ratios are >= 1 (Theorem 1: nothing beats the optimum).
		if strings.HasPrefix(row[2], "0.") {
			t.Errorf("E8 row %v has mean ratio < 1", row)
		}
	}
}

func TestSteadyStateGapBounded(t *testing.T) {
	rep, err := runSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Rows) == 0 {
		t.Fatal("E9 produced no rows")
	}
	// The gap column (index 3) must never be negative and must not grow
	// with n: compare the first and last rows.
	first, last := tbl.Rows[0][3], tbl.Rows[len(tbl.Rows)-1][3]
	if strings.HasPrefix(first, "-") || strings.HasPrefix(last, "-") {
		t.Errorf("E9 negative gap: first %s last %s", first, last)
	}
}

func TestOnlinePoliciesDominatedByOptimal(t *testing.T) {
	rep, err := runOnlinePolicies()
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[4], "0.") {
			t.Errorf("E10 row %v has ratio < 1 (beats the optimum)", row)
		}
	}
}

func TestTreeCoverExperimentShape(t *testing.T) {
	rep, err := runTreeCover()
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Rows) == 0 {
		t.Fatal("E11 produced no rows")
	}
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[6], "0.") {
			t.Errorf("E11 row %v: heuristic beats the exact optimum", row)
		}
		// Spider-shaped trees must be solved exactly (Theorem 3).
		if row[2] == "true" && row[6] != "1.000" {
			t.Errorf("E11 row %v: spider tree not exact", row)
		}
	}
}

func TestFleetExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("restart/capacity drill skipped in -short mode")
	}
	// E12's Run carries the PR's acceptance criteria as hard assertions
	// (zero constructions after restart, bounded restart-warm latency,
	// fleet capacity ratio); a nil error here IS the drill passing.
	e, _ := ByID("E12")
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, frag := range []string{"E12a", "E12b", "restart-warm (rehydrated)", "2 shards"} {
		if !strings.Contains(out, frag) {
			t.Errorf("E12 output missing %q", frag)
		}
	}
}

func TestComplexityExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep skipped in -short mode")
	}
	e, _ := ByID("E5")
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, frag := range []string{"E5a", "E5b", "E5c", "fitted exponent"} {
		if !strings.Contains(out, frag) {
			t.Errorf("E5 output missing %q", frag)
		}
	}
}
