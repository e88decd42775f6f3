package label

import (
	"fmt"
	"slices"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

// referenceJoin replays the join the sketch-bound probe replaced over the
// signatures of one index, in insertion order, and returns the union-find
// parent array it leaves: every shared-band candidate below the new item,
// ascending, is skipped when the union-find already holds it in the new
// item's set and otherwise confirmed with AgreeAtLeast.
func referenceJoin(sigs []minhash.Signature, threshold float64) []int {
	uf := &unionFind{}
	neighbours := texttest.BandNeighbours(sigs, lshBands, lshRows)
	for i, sig := range sigs {
		idx := uf.add()
		need := minhash.MinAgree(len(sig), threshold)
		for _, cand := range neighbours[i] {
			if uf.find(cand) == uf.find(idx) {
				continue
			}
			if minhash.AgreeAtLeast(sig, sigs[cand], need) {
				uf.union(idx, cand)
			}
		}
	}
	return uf.parent
}

func indexSignatures(ix *minhash.Index) []minhash.Signature {
	sigs := make([]minhash.Signature, ix.Len())
	for i := range sigs {
		sigs[i] = ix.Signature(i)
	}
	return sigs
}

// TestJoinParentsMatchReference holds the union-find parent arrays — path
// compression included, since checkpoints persist them verbatim — equal to
// the reference join's after a whole stream, item by item and batched.
func TestJoinParentsMatchReference(t *testing.T) {
	corpus, _ := collectCorpus(t, 8)
	adversarial, _, _ := adversarialCorpus(t)
	for name, c := range map[string]*Corpus{"collect": corpus, "adversarial": adversarial} {
		for _, batchSize := range []int{1, 64} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batchSize), func(t *testing.T) {
				cfg := DefaultConfig()
				st := NewStore(cfg)
				feedStore(st, c, batchSize, nil)
				for _, idx := range []struct {
					name      string
					ix        *minhash.Index
					uf        *unionFind
					threshold float64
				}{
					{"description", st.descIndex, st.descUF, cfg.DescSimilarity},
					{"tweet", st.twIndex, st.twUF, cfg.TweetSimilarity},
				} {
					want := referenceJoin(indexSignatures(idx.ix), idx.threshold)
					if got := idx.uf.parent; !slices.Equal(got, want) {
						diff := 0
						for i := range got {
							if got[i] != want[i] {
								diff++
							}
						}
						t.Errorf("%s parents differ from the reference join at %d of %d entries", idx.name, diff, len(got))
					}
				}
			})
		}
	}
}
