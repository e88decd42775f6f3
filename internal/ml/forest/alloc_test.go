package forest

import "testing"

// TestFlatPredictAllocFree pins the flat predictor's steady-state
// allocation budget at zero: single-sample verdicts and probabilities, and
// single-worker batch prediction into reused buffers, must not allocate.
func TestFlatPredictAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	x, y := noisyData(400, 1)
	f := New(Config{Trees: 20, Seed: 1, Workers: 1})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, _ := noisyData(300, 2)

	if a := testing.AllocsPerRun(200, func() {
		_ = f.Predict(tx[0])
		_ = f.PredictProba(tx[1])
	}); a != 0 {
		t.Fatalf("single-sample predict allocates %v/op, want 0", a)
	}

	outV := make([]bool, len(tx))
	if a := testing.AllocsPerRun(50, func() {
		outV = f.PredictBatchInto(tx, outV)
	}); a != 0 {
		t.Fatalf("1-worker batch predict allocates %v/op, want 0", a)
	}
}
