package forest

import (
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/tree"
)

// TestSharedPresortMatchesPerTreeFit cross-checks Fit's shared-presort
// path — one split.NewPresort over the training rows, a Presort.View of
// each tree's bootstrap draw counts and FitEngine per tree — against the plain
// construction it replaces: every tree fit by tree.Fit on its own
// materialized bootstrap rows, same draws and seeds. At the paper config
// (exact scan, 70 trees, depth 700) each member tree's verdict and the
// ensemble's vote fraction must agree bit for bit on held-out probes.
// tree.Fit itself is checked against the per-node-sort reference scan by
// the tree package's TestTreePresortedMatchesReference.
func TestSharedPresortMatchesPerTreeFit(t *testing.T) {
	x, y := goldenData(600, 42)
	f := New(PaperConfig())
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	boots, seeds := f.drawBootstraps(len(x))
	perTree := make([]*tree.Tree, len(boots))
	bx, by := make([][]float64, len(x)), make([]bool, len(x))
	for ti, boot := range boots {
		for i, j := range boot {
			bx[i], by[i] = x[j], y[j]
		}
		perTree[ti] = tree.New(f.treeConfig(len(x[0]), seeds[ti]))
		if err := perTree[ti].Fit(bx, by); err != nil {
			t.Fatal(err)
		}
	}

	probes, _ := goldenData(200, 43)
	for pi, p := range probes {
		votes := 0
		for ti, want := range perTree {
			v := want.Predict(p)
			if got := f.trees[ti].Predict(p); got != v {
				t.Fatalf("probe %d: tree %d votes %v, per-tree fit votes %v", pi, ti, got, v)
			}
			if v {
				votes++
			}
		}
		if got, want := f.PredictProba(p), float64(votes)/float64(len(perTree)); got != want {
			t.Fatalf("probe %d: PredictProba %v, per-tree fits vote %v", pi, got, want)
		}
	}
}
