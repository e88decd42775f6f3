package label

import (
	"reflect"
	"testing"
)

// TestPipelineDeterministicAcrossWorkerCounts verifies the
// worker-invariance contract for both labelers: the Store — prep fan-out,
// concurrent user and tweet joins — and the from-scratch oracle's
// clustering passes each produce a bit-identical Result whether they run
// on 1, 2, or 8 workers.
func TestPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	corpus, w := collectCorpus(t, 6)
	oracle := NewNoisyOracle(w, 0.02, 7)

	for _, lab := range labelers {
		t.Run(lab.name, func(t *testing.T) {
			run := func(workers int) *Result {
				cfg := DefaultConfig()
				cfg.Workers = workers
				return lab.label(cfg, corpus, oracle)
			}

			ref := run(1)
			for _, workers := range []int{2, 8} {
				r := run(workers)
				if !reflect.DeepEqual(r.SpamTweets, ref.SpamTweets) {
					t.Fatalf("workers=%d: spam tweet labels diverge from workers=1", workers)
				}
				if !reflect.DeepEqual(r.HamTweets, ref.HamTweets) {
					t.Fatalf("workers=%d: ham tweet labels diverge from workers=1", workers)
				}
				if !reflect.DeepEqual(r.Spammers, ref.Spammers) {
					t.Fatalf("workers=%d: spammer labels diverge from workers=1", workers)
				}
				if !reflect.DeepEqual(r.Benign, ref.Benign) {
					t.Fatalf("workers=%d: benign labels diverge from workers=1", workers)
				}
				if r.ManualChecks != ref.ManualChecks {
					t.Fatalf("workers=%d: manual checks %d != %d", workers, r.ManualChecks, ref.ManualChecks)
				}
			}
		})
	}
}
