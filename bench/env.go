package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// envWorkers is the program's worker-pool override (internal/parallel). The
// benchmark clears it in every child, so the pool resolves to GOMAXPROCS.
const envWorkers = "PH_WORKERS"

// envStamp says where numbers were taken; every output file carries it.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func stampEnv() envStamp {
	procs := runtime.GOMAXPROCS(0)
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		Workers:    procs,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
	}
}

// commit names the checked-out commit, or "unknown" outside a git checkout
// (the benchmark driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// checkProcs refuses to measure with more Ps than CPUs: the extra Ps only
// time-slice, and the numbers stop being comparable with an honest run.
func checkProcs() error {
	v := os.Getenv("GOMAXPROCS")
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("GOMAXPROCS=%q is not a number", v)
	}
	if n > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure", n, runtime.NumCPU())
	}
	return nil
}

// childEnv is the parent's environment without the worker-pool override.
func childEnv() []string {
	env := os.Environ()
	out := env[:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, envWorkers+"=") {
			out = append(out, kv)
		}
	}
	return out
}
