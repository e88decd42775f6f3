// Livestream: the distributed path. Starts an in-process twitterd-style
// API server and runs the sniffer against it as a client, the way the
// paper's implementation used Tweepy (§V-A): nodes are screened through
// the REST search endpoint, their mentions tracked through the
// statuses/filter stream, and each simulated hour advanced over HTTP. The
// captured stream then goes through the same labeling, detection and PGE
// ranking as an in-process run.
//
//	go run ./examples/livestream
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	pseudohoneypot "github.com/pseudo-honeypot/pseudohoneypot"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/twitterapi"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Spin up the simulated Twitter API server. The oracle exposes the
	// simulator's spam flags to the labeler's manual-check stand-in.
	cfg := pseudohoneypot.DefaultConfig()
	cfg.NumAccounts = 3000
	cfg.OrganicTweetsPerHour = 600
	sim, err := pseudohoneypot.NewSimulation(cfg)
	if err != nil {
		return err
	}
	httpSrv := httptest.NewServer(sim.NewAPIServer(twitterapi.WithOracle()))
	defer httpSrv.Close()
	fmt.Printf("twitterd emulation listening at %s\n", httpSrv.URL)

	// The server is the sniffer's only source: no in-process simulation
	// is handed to the sniffer.
	wire, err := pseudohoneypot.NewWireSource(httpSrv.URL)
	if err != nil {
		return err
	}
	sniffer, err := pseudohoneypot.NewSniffer(nil, pseudohoneypot.SnifferConfig{
		Specs:   pseudohoneypot.StandardSpecs(1),
		Seed:    1,
		Sources: []pseudohoneypot.IngestSource{wire},
	})
	if err != nil {
		return err
	}
	defer sniffer.Close()

	fmt.Println("monitoring 6 simulated hours over statuses/filter...")
	if err := sniffer.RunHours(6); err != nil {
		return err
	}
	res, err := sniffer.DetectAll()
	if err != nil {
		return err
	}
	fmt.Printf("collected tweets:   %d\n", res.Captures)
	fmt.Printf("classified spams:   %d\n", res.Spams)
	fmt.Printf("detected spammers:  %d\n", res.Spammers)
	fmt.Println("\ntop 5 attributes by garner efficiency:")
	for i, row := range res.PGE {
		if i >= 5 {
			break
		}
		fmt.Printf("  %d. %-34s PGE=%.4f (%d spammers)\n",
			i+1, row.Selector.String(), row.PGE, row.Spammers)
	}
	return nil
}
