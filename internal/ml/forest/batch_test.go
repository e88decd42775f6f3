package forest

// PredictProba returns the fraction of trees voting spam.
func (f *Forest) PredictProba(x []float64) float64 {
	if f.flat == nil {
		return 0
	}
	return float64(f.flat.votes(x)) / float64(len(f.trees))
}

// PredictBatch majority-votes every sample into a fresh slice; the tests'
// shorthand for PredictBatchInto(x, nil).
func (f *Forest) PredictBatch(x [][]float64) []bool {
	return f.PredictBatchInto(x, nil)
}

// PredictProbaBatch returns every sample's spam-vote fraction in a fresh
// slice, one PredictProba per sample.
func (f *Forest) PredictProbaBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = f.PredictProba(x[i])
	}
	return out
}
