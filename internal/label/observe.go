package label

import "github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"

// storeInstruments times the store's clustering passes (DESIGN.md §9): the
// materialization of each group list at Snapshot.
type storeInstruments struct {
	clusterSecs *metrics.HistogramVec
}

func newStoreInstruments(r *metrics.Registry) *storeInstruments {
	if r == nil {
		r = metrics.Default()
	}
	return &storeInstruments{
		clusterSecs: r.HistogramVec("ph_label_cluster_seconds",
			"Clustering pass wall time, by pass (image, name, description, tweets).",
			nil, "pass"),
	}
}
