// Campaignhunt: exposes a spam campaign with the paper's clustering-based
// labeling (§IV-B) alone — profile-image dHash groups, screen-name Σ-Seq
// groups, MinHash near-duplicate descriptions and tweets — seeded only by
// platform suspensions, with no trained model involved.
//
//	go run ./examples/campaignhunt
package main

import (
	"fmt"
	"log"
	"sort"

	pseudohoneypot "github.com/pseudo-honeypot/pseudohoneypot"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := pseudohoneypot.DefaultConfig()
	cfg.NumAccounts = 3000
	cfg.OrganicTweetsPerHour = 600
	cfg.SuspensionRatePerHour = 0.02 // the platform has begun sweeping
	sim, err := pseudohoneypot.NewSimulation(cfg)
	if err != nil {
		return err
	}

	// Collect the mention stream for a day.
	var tweets []*socialnet.Tweet
	cancel := sim.Subscribe(func(t *socialnet.Tweet) {
		if len(t.Mentions) > 0 {
			tweets = append(tweets, t)
		}
	})
	sim.RunHours(24)
	cancel()
	fmt.Printf("collected %d mention tweets\n", len(tweets))

	// Label without the manual stage (no oracle): suspensions seed the
	// propagation through shared campaign artefacts.
	authors := make([]*socialnet.Account, len(tweets))
	for i, t := range tweets {
		authors[i] = sim.World().Account(t.AuthorID)
	}
	store := label.NewStore(label.DefaultConfig())
	store.AddBatch(tweets, authors, authors)
	result := store.Snapshot(nil /* no manual-checking oracle */)

	suspendedSeeds, viaClustering := 0, 0
	for _, m := range result.Spammers {
		switch m {
		case label.MethodSuspended:
			suspendedSeeds++
		case label.MethodClustering:
			viaClustering++
		}
	}
	fmt.Printf("suspension seeds:            %d accounts\n", suspendedSeeds)
	fmt.Printf("uncovered via clustering:    %d accounts\n", viaClustering)

	// Show one uncovered campaign: members share a screen-name shape. Ids
	// go in ascending order and ties break on the shape, so the output is
	// the same on every run.
	var uncovered []socialnet.AccountID
	for id, m := range result.Spammers {
		if m == label.MethodClustering {
			uncovered = append(uncovered, id)
		}
	}
	sort.Slice(uncovered, func(i, j int) bool { return uncovered[i] < uncovered[j] })
	shapes := make(map[string][]string)
	for _, id := range uncovered {
		if a := sim.World().Account(id); a != nil {
			seq := textutil.ClassSeqWithRunLengths(a.ScreenName)
			shapes[seq] = append(shapes[seq], a.ScreenName)
		}
	}
	type group struct {
		seq   string
		names []string
	}
	var groups []group
	for seq, names := range shapes {
		groups = append(groups, group{seq: seq, names: names})
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i].names) != len(groups[j].names) {
			return len(groups[i].names) > len(groups[j].names)
		}
		return groups[i].seq < groups[j].seq
	})
	fmt.Println("\nlargest uncovered naming-template groups:")
	for i, g := range groups {
		if i >= 3 || len(g.names) < 2 {
			break
		}
		show := g.names
		if len(show) > 5 {
			show = show[:5]
		}
		fmt.Printf("  Σ-Seq %-14s %3d members, e.g. %v\n", g.seq, len(g.names), show)
	}

	// Score the clustering-only labels against generative ground truth.
	tp, fp := 0, 0
	for id := range result.Spammers {
		if a := sim.World().Account(id); a != nil && a.Kind == socialnet.KindSpammer {
			tp++
		} else {
			fp++
		}
	}
	if tp+fp > 0 {
		fmt.Printf("\nclustering label precision vs ground truth: %.3f (%d/%d)\n",
			float64(tp)/float64(tp+fp), tp, tp+fp)
	}
	return nil
}
