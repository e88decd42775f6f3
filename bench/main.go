// Command bench is the repository's benchmark: whole sniffer runs — sim →
// source → match → feature → label → train → classify → PGE — over one fixed
// firehose, on four deployments, with end-to-end numbers from untraced runs
// through the public API and per-layer numbers from traced runs. See
// README.md in this directory.
//
//	go run -C bench .                            # a full set: every workload, both modes
//	go run -C bench . -workload dense-stream     # one workload, both modes
//	go run -C bench . -workload paper-batch -seed 7 -seconds 20 -trace 0
//	go run -C bench . -compare a/set.json b/set.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

func main() {
	// Every way the process is normally told to go, a closed output pipe
	// included, cancels the run instead, so that the scratch stores are removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errWrong is returned when a run gave a wrong answer; the details have been
// printed with the report.
var errWrong = errors.New("wrong answer: see the problems listed above")

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		opt      = options{Scale: benchScale}
		name     = fs.String("workload", "", "workload to run; empty runs all four as one set")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs; -1: both")
		compare  = fs.Bool("compare", false, "compare two report files: -compare A.json B.json")
		childArg = fs.String("child", "", "internal: perform the one run described by this JSON")
	)
	fs.Int64Var(&opt.Seed, "seed", 1, "seed of the simulated world and of SnifferConfig.Seed")
	fs.IntVar(&opt.Hours, "hours", defaultHours, "simulated hours per run")
	fs.IntVar(&opt.Repeats, "repeats", 0, "untraced runs per workload (then one traced run); 0 repeats for -seconds, at least 3 times")
	fs.Float64Var(&opt.Seconds, "seconds", 28, "how long each workload and mode keeps repeating when -repeats is 0")
	fs.StringVar(&opt.Out, "out", "", "directory for the report (set.json or <workload>.json) and <workload>.trace.json")
	fs.StringVar(&opt.Scratch, "scratch", ".bench_tmp", "directory under which the durable workload's stores live while it runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *childArg != "":
		return runChild(*childArg, stdout)
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two report files")
		}
		return compareReports(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if opt.Hours < 1 || (opt.Repeats != 0 && opt.Repeats < minRepeats) {
		return fmt.Errorf("need -hours ≥ 1 and -repeats 0 or ≥ %d", minRepeats)
	}
	if err := checkProcs(); err != nil {
		return err
	}
	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}

	// The stores live in a directory of this session's own making, so that
	// removing it, on success and on failure, can take nothing else along.
	if err := os.MkdirAll(opt.Scratch, 0o755); err != nil {
		return err
	}
	root := opt.Scratch
	var err error
	if opt.Scratch, err = os.MkdirTemp(root, "session-"); err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(opt.Scratch)
		os.Remove(root) // only when empty
	}()

	rep := &report{Env: stampEnv(), Options: opt}
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d workers=%d %s %s/%s commit=%s\n",
		rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.Workers, rep.Env.GoVersion, rep.Env.GOOS, rep.Env.GOARCH, rep.Env.Commit)
	fmt.Fprintf(stdout, "run: seed=%d hours=%d world=%d accounts, %d organic tweets/h repeats=%d seconds=%g\n",
		opt.Seed, opt.Hours, opt.Scale.Accounts, opt.Scale.Organic, opt.Repeats, opt.Seconds)

	s := newSession(opt, stdout)
	for _, w := range todo {
		wr := newWorkloadReport(w)
		if *trace != 1 {
			if err := s.measureEndToEnd(ctx, w, wr); err != nil {
				return err
			}
		}
		if *trace != 0 {
			if err := s.measureLayers(ctx, w, wr); err != nil {
				return err
			}
		}
		wr.print(stdout)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if opt.Out != "" {
		file := "set.json"
		if *name != "" {
			file = *name + ".json"
		}
		if err := writeJSON(filepath.Join(opt.Out, file), rep); err != nil {
			return err
		}
	}
	if *name != "" {
		// The benchmark driver reads this line, the last on standard output.
		line, err := rep.Workloads[0].driverLine()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if slices.ContainsFunc(rep.Workloads, func(wr *workloadReport) bool { return !wr.Correct }) {
		return errWrong
	}
	return nil
}
