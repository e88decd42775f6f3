package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// minRepeats is the fewest untraced runs an end-to-end number may rest on.
const minRepeats = 3

// f1Floor is the detection quality below which a run is a wrong answer.
const f1Floor = 0.80

// options are the knobs of one benchmark session.
type options struct {
	Seed  int64 `json:"seed"`
	Hours int   `json:"hours"`
	Scale scale `json:"scale"`
	// Repeats fixes the untraced runs per workload (and one traced run);
	// 0 repeats for Seconds instead, never fewer than minRepeats.
	Repeats int     `json:"repeats"`
	Seconds float64 `json:"seconds"`
	// Out, when set, receives report and trace files.
	Out string `json:"-"`
	// Scratch holds the durable workloads' store directories while they run.
	Scratch string `json:"-"`
}

// session runs workloads one run at a time and remembers the untraced runs,
// so a traced measurement reuses the ones an end-to-end measurement made.
type session struct {
	opt options
	log io.Writer
	// start performs one run. The benchmark starts a fresh child process;
	// the smoke test runs in-process.
	start    func(ctx context.Context, spec runSpec) (*runResult, error)
	untraced map[string][]*runResult
}

func newSession(opt options, log io.Writer) *session {
	return &session{opt: opt, log: log, start: startChild, untraced: make(map[string][]*runResult)}
}

// startChild runs spec in a fresh process of this binary, so that peak RSS,
// allocation counts and the heap a run starts with are the run's own.
func startChild(ctx context.Context, spec runSpec) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", spec.Workload, err)
	}
	var r runResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &r); err != nil {
		return nil, fmt.Errorf("child %s: bad result: %w", spec.Workload, err)
	}
	return &r, nil
}

// runChild is the child side of startChild.
func runChild(arg string, stdout io.Writer) error {
	var spec runSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("bad -child argument: %w", err)
	}
	r, err := runOne(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(r)
}

func runOne(spec runSpec) (*runResult, error) {
	w, err := workloadByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	if spec.Traced {
		return runTraced(spec, w)
	}
	return runUntraced(spec, w)
}

// one performs a single run of w. A durable run gets a scratch directory of
// its own (tens of MB), removed as soon as the run has ended either way.
func (s *session) one(ctx context.Context, w workload, traced bool, traceOut string) (*runResult, error) {
	spec := runSpec{
		Workload: w.Name, Traced: traced, Seed: s.opt.Seed, Hours: s.opt.Hours,
		Scale: s.opt.Scale, TraceOut: traceOut,
	}
	if w.WAL {
		var err error
		if spec.Dir, err = os.MkdirTemp(s.opt.Scratch, "store-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(spec.Dir)
	}
	began := time.Now()
	r, err := s.start(ctx, spec)
	if err != nil {
		return nil, err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(s.log, "  %-17s %-8s run %.3fs (setup %.3f collect %.3f detect %.3f close %.3f) wall %.3fs captures %d f1 %.4f\n",
		w.Name, mode, r.runS(), r.SetupS, r.CollectS, r.DetectS, r.CloseS, time.Since(began).Seconds(), r.Captures, r.f1())
	return r, nil
}

// repeat calls run until the plan is met: exactly fixed times when fixed > 0;
// otherwise at least atLeast times and then for as long as another run of
// average length still ends before the deadline.
func repeat(fixed, atLeast int, deadline time.Time, run func() error) error {
	began := time.Now()
	for n := 0; ; n++ {
		if fixed > 0 && n >= fixed {
			return nil
		}
		if fixed <= 0 && n >= atLeast {
			mean := time.Since(began) / time.Duration(n)
			if time.Now().Add(mean).After(deadline) {
				return nil
			}
		}
		if err := run(); err != nil {
			return err
		}
	}
}

// moreUntraced adds one untraced run of w to the session.
func (s *session) moreUntraced(ctx context.Context, w workload) error {
	r, err := s.one(ctx, w, false, "")
	if err == nil {
		s.untraced[w.Name] = append(s.untraced[w.Name], r)
	}
	return err
}

// anUntraced returns the untraced runs of the named workload, making one
// when the session has none yet.
func (s *session) anUntraced(ctx context.Context, name string) ([]*runResult, error) {
	if len(s.untraced[name]) == 0 {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		if err := s.moreUntraced(ctx, w); err != nil {
			return nil, err
		}
	}
	return s.untraced[name], nil
}

func (s *session) deadline() time.Time {
	return time.Now().Add(time.Duration(s.opt.Seconds * float64(time.Second)))
}

// measureEndToEnd runs w's untraced repeats and folds them into rep.
func (s *session) measureEndToEnd(ctx context.Context, w workload, rep *workloadReport) error {
	err := repeat(s.opt.Repeats, minRepeats, s.deadline(), func() error { return s.moreUntraced(ctx, w) })
	if err != nil {
		return err
	}
	runs := s.untraced[w.Name]
	rep.addRuns(runs...)
	rep.EndToEnd = foldEndToEnd(runs)
	return nil
}

// measureLayers runs w traced and checks the traced program against the
// untraced one: the traced runs must reproduce the fingerprint of w's
// untraced twin, and that of the workload w answers to.
func (s *session) measureLayers(ctx context.Context, w workload, rep *workloadReport) error {
	deadline := s.deadline()
	twin, err := s.anUntraced(ctx, w.Name)
	if err != nil {
		return err
	}
	ref, err := s.anUntraced(ctx, referenceFor(w))
	if err != nil {
		return err
	}
	tracedW, err := workloadByName(tracedAs(w))
	if err != nil {
		return err
	}
	base, err := s.anUntraced(ctx, tracedW.Name)
	if err != nil {
		return err
	}

	var traced []*runResult
	fixed := 0
	if s.opt.Repeats > 0 {
		fixed = 1
	}
	err = repeat(fixed, 1, deadline, func() error {
		out := ""
		if s.opt.Out != "" && len(traced) == 0 {
			out = filepath.Join(s.opt.Out, w.Name+".trace.json")
		}
		r, err := s.one(ctx, tracedW, true, out)
		if err == nil {
			traced = append(traced, r)
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.addRuns(traced...)
	rep.addRuns(twin[0], ref[0])
	rep.PerLayer = foldLayers(w, traced, twin, ref, base)
	return nil
}
