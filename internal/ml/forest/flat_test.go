package forest

import (
	"testing"
)

// pointerVotes is the inference oracle for the flat predictor: it counts
// spam votes by walking the original pointer trees the pool was compiled
// from, so any prediction divergence is the flat predictor's fault.
func pointerVotes(f *Forest, x []float64) int {
	votes := 0
	for _, t := range f.trees {
		if t.Predict(x) {
			votes++
		}
	}
	return votes
}

// TestFlatForestBitIdentical is the property suite for the flat predictor:
// across seeds, shapes, and worker counts, single-sample verdicts and
// probabilities and batch verdicts must equal the pointer oracle's bit for
// bit.
func TestFlatForestBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, cfg := range []Config{
			{Trees: 15, Seed: seed},
			{Trees: 8, MaxDepth: 3, Seed: seed},
			{Trees: 10, MinLeaf: 4, Seed: seed},
		} {
			x, y := noisyData(400, seed)
			f := New(cfg)
			if err := f.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			tx, _ := noisyData(700, seed+100)
			wantV := make([]bool, len(tx))
			wantP := make([]float64, len(tx))
			for i := range tx {
				votes := pointerVotes(f, tx[i])
				wantV[i] = votes*2 > len(f.trees)
				wantP[i] = float64(votes) / float64(len(f.trees))
			}

			for i := range tx {
				if f.Predict(tx[i]) != wantV[i] {
					t.Fatalf("seed %d cfg %+v: verdict mismatch at sample %d", seed, cfg, i)
				}
				if f.PredictProba(tx[i]) != wantP[i] {
					t.Fatalf("seed %d cfg %+v: probability mismatch at sample %d", seed, cfg, i)
				}
			}
			for _, workers := range []int{1, 2, 8} {
				f.cfg.Workers = workers
				gotV := f.PredictBatch(tx)
				for i := range tx {
					if gotV[i] != wantV[i] {
						t.Fatalf("seed %d workers %d: batch verdict mismatch at %d", seed, workers, i)
					}
				}
			}
		}
	}
}

// TestPredictBatchIntoReuse checks PredictBatchInto reuses the caller's
// buffer and still matches the allocating form.
func TestPredictBatchIntoReuse(t *testing.T) {
	x, y := noisyData(300, 3)
	f := New(Config{Trees: 12, Seed: 3})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, _ := noisyData(500, 4)
	outV := make([]bool, 0, len(tx))
	gotV := f.PredictBatchInto(tx, outV)
	if &gotV[0] != &outV[:1][0] {
		t.Fatal("PredictBatchInto did not reuse the provided buffer")
	}
	wantV := f.PredictBatch(tx)
	for i := range tx {
		if gotV[i] != wantV[i] {
			t.Fatalf("Into mismatch at %d", i)
		}
	}
	// Short input into a large buffer must truncate, not stretch.
	if short := f.PredictBatchInto(tx[:7], gotV); len(short) != 7 {
		t.Fatalf("len = %d, want 7", len(short))
	}
}
