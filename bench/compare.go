package main

import (
	"fmt"
	"io"
)

// compareReports prints, per workload and end-to-end metric, the value in
// each report, B's difference relative to A and the metric's bound. It fails
// when B is worse than A by more than a bound. Two sets of the same commit
// agree when neither direction fails.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s commit=%s seed=%d hours=%d GOMAXPROCS=%d\n", pathA, a.Env.Commit, a.Options.Seed, a.Options.Hours, a.Env.GOMAXPROCS)
	fmt.Fprintf(w, "B: %s commit=%s seed=%d hours=%d GOMAXPROCS=%d\n", pathB, b.Env.Commit, b.Options.Seed, b.Options.Hours, b.Env.GOMAXPROCS)
	fmt.Fprintf(w, "%-17s %-22s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	inB := make(map[string]*workloadReport, len(b.Workloads))
	for _, wr := range b.Workloads {
		inB[wr.Workload] = wr
	}
	compared, regressions := 0, 0
	for _, wa := range a.Workloads {
		wb := inB[wa.Workload]
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			compared++
			diff := (vb.Value - va.Value) / va.Value
			worse := diff
			if d.Better == "higher" {
				worse = -diff
			}
			verdict := ""
			switch {
			case worse > d.Bound:
				verdict = "  REGRESSION"
				regressions++
			case worse < -d.Bound:
				verdict = "  better"
			}
			fmt.Fprintf(w, "%-17s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				wa.Workload, d.Name, va.Value, vb.Value, 100*diff, 100*d.Bound, verdict)
		}
	}
	if compared == 0 {
		return fmt.Errorf("the reports share no workload with end-to-end metrics")
	}
	if regressions > 0 {
		return fmt.Errorf("%d of %d comparisons are worse in B by more than the bound", regressions, compared)
	}
	return nil
}
