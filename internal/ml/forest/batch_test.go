package forest

// PredictBatch majority-votes every sample into a fresh slice; the tests'
// shorthand for PredictBatchInto(x, nil).
func (f *Forest) PredictBatch(x [][]float64) []bool {
	return f.PredictBatchInto(x, nil)
}

// PredictProbaBatch returns every sample's spam-vote fraction in a fresh
// slice; the tests' shorthand for PredictProbaBatchInto(x, nil).
func (f *Forest) PredictProbaBatch(x [][]float64) []float64 {
	return f.PredictProbaBatchInto(x, nil)
}
