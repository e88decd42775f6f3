package pseudohoneypot

import (
	"reflect"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
)

func testSimulation(t *testing.T) *Simulation {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewSimulationValidates(t *testing.T) {
	bad := DefaultConfig()
	bad.NumAccounts = -1
	if _, err := NewSimulation(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSimulationRunsAndStreams(t *testing.T) {
	sim := testSimulation(t)
	n := 0
	cancel := sim.Subscribe(func(*Tweet) { n++ })
	defer cancel()
	before := sim.Now()
	sim.RunHours(2)
	if n == 0 {
		t.Fatal("no tweets streamed")
	}
	if got := sim.Now().Sub(before).Hours(); got != 2 {
		t.Fatalf("advanced %v hours, want 2", got)
	}
	if sim.World().NumAccounts() == 0 {
		t.Fatal("world empty")
	}
}

func TestSnifferEndToEnd(t *testing.T) {
	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, SnifferConfig{
		Specs: RandomSpec(120),
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()

	sim.RunHours(8)
	res, err := sniffer.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	if res.Captures == 0 {
		t.Fatal("no captures")
	}
	if res.Spams == 0 || res.Spammers == 0 {
		t.Fatalf("detected %d spams / %d spammers", res.Spams, res.Spammers)
	}
	if res.Labels.TotalSpams() == 0 {
		t.Fatal("labeling produced nothing")
	}
	if len(res.PGE) == 0 {
		t.Fatal("no PGE rows")
	}
}

// TestDetectAllTwiceCreditsSpamOnce: DetectAll may be called between
// RunHours calls, so a second call on the same captures must report the
// PGE rows the first one did, not credit the same spam to the groups
// again.
func TestDetectAllTwiceCreditsSpamOnce(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	sniffer, err := NewSniffer(testSimulation(t), goldenStream(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()
	if err := sniffer.RunHours(4); err != nil {
		t.Fatal(err)
	}
	first, err := sniffer.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sniffer.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	credited := func(rows []PGERow) (spams int) {
		for _, r := range rows {
			spams += r.Spams
		}
		return spams
	}
	if credited(first.PGE) == 0 {
		t.Fatal("no spam credited to any group; the run does not exercise attribution")
	}
	if !reflect.DeepEqual(second.PGE, first.PGE) {
		t.Fatalf("second DetectAll moved the PGE rows: %d spams credited, then %d",
			credited(first.PGE), credited(second.PGE))
	}
}

func TestSnifferDefaults(t *testing.T) {
	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, SnifferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()
	if got := len(sniffer.Monitor().Groups()); got != len(StandardSpecs(2)) {
		t.Fatalf("default specs groups = %d", got)
	}
}

func TestSnifferNilSimulation(t *testing.T) {
	if _, err := NewSniffer(nil, SnifferConfig{}); err == nil {
		t.Fatal("nil simulation accepted")
	}
}

func TestSnifferDetectAllBeforeTraffic(t *testing.T) {
	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, SnifferConfig{Specs: RandomSpec(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()
	if _, err := sniffer.DetectAll(); err == nil {
		t.Fatal("DetectAll with no captures should error")
	}
}

func TestStandardSpecsBudget(t *testing.T) {
	if got := len(StandardSpecs(10)); got != 123 {
		t.Fatalf("standard selector count = %d, want 123", got)
	}
}

func TestNewExperiments(t *testing.T) {
	if _, err := NewExperiments("small"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExperiments("nope"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestNewAPIServer(t *testing.T) {
	sim := testSimulation(t)
	srv := sim.NewAPIServer()
	if srv == nil {
		t.Fatal("nil server")
	}
	srv.Advance(1)
}
