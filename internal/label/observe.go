package label

import "github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"

// storeInstruments times the store's clustering passes (DESIGN.md §9): the
// materialization of each group list at Snapshot. It also counts the work
// each ingest probe does, as counts rather than times so they repeat
// exactly per seed: the candidates a near-duplicate probe walks, by index,
// and the full-distance checks the image grouper makes. The counters'
// children are resolved here, so a probe pays one atomic add for each.
type storeInstruments struct {
	clusterSecs     *metrics.HistogramVec
	tweetCandidates *metrics.Counter
	descCandidates  *metrics.Counter
	imageChecks     *metrics.Counter
}

func newStoreInstruments(r *metrics.Registry) *storeInstruments {
	if r == nil {
		r = metrics.Default()
	}
	candidates := r.CounterVec("ph_label_probe_candidates_total",
		"Candidates the near-duplicate probes walked, by index (tweet, description).", "index")
	return &storeInstruments{
		clusterSecs: r.HistogramVec("ph_label_cluster_seconds",
			"Clustering pass wall time, by pass (image, name, description, tweets).",
			nil, "pass"),
		tweetCandidates: candidates.With("tweet"),
		descCandidates:  candidates.With("description"),
		imageChecks: r.Counter("ph_label_image_checks_total",
			"Full Hamming-distance checks the image grouper made against group representatives."),
	}
}
