package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	ph "github.com/pseudo-honeypot/pseudohoneypot"
)

// runResult is what one run (one child process) reports to the parent.
type runResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`

	// Fingerprint hashes the whole detection result (see fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Tweets is what the bench's own firehose subscriber counted.
	Tweets   int `json:"tweets"`
	Captures int `json:"captures"`
	// Classified is the number of captures present in the monitor after
	// DetectAll; it falls short of Captures when results went missing.
	Classified int `json:"classified"`
	Spams      int `json:"spams"`
	// TP/FP/FN compare Capture.Spam with the sim's ground truth.
	TP int `json:"tp"`
	FP int `json:"fp"`
	FN int `json:"fn"`

	SetupS   float64   `json:"setup_s"`
	CollectS float64   `json:"collect_s"`
	HourS    []float64 `json:"hour_s"`
	DetectS  float64   `json:"detect_s"`
	CloseS   float64   `json:"close_s"`

	Mallocs   uint64  `json:"mallocs"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Reopen is set on the durable workload: the same directory opened
	// again with a fresh simulation.
	Reopen *reopenResult `json:"reopen,omitempty"`

	// Layers holds the per-layer numbers of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

type reopenResult struct {
	RecoverS float64 `json:"recover_s"`
	Restored int     `json:"restored"`
	// Err is the store's error text when the reopen failed.
	Err string `json:"err,omitempty"`
}

// runS is the run's whole wall time, the ROADMAP's top line.
func (r *runResult) runS() float64 { return r.SetupS + r.CollectS + r.DetectS + r.CloseS }

func (r *runResult) f1() float64 {
	den := 2*r.TP + r.FP + r.FN
	if den == 0 {
		return 0
	}
	return float64(2*r.TP) / float64(den)
}

// score fills the result-quality fields from the detection result and the
// classified captures.
func (r *runResult) score(res *ph.DetectionResult, captures []*ph.Capture) {
	r.Fingerprint = fingerprint(res)
	r.Captures = res.Captures
	r.Spams = res.Spams
	r.Classified = len(captures)
	for _, c := range captures {
		switch {
		case c.Spam && c.Tweet.Spam:
			r.TP++
		case c.Spam:
			r.FP++
		case c.Tweet.Spam:
			r.FN++
		}
	}
}

// fingerprint hashes every observable of a detection result — counts, each
// label with its method in key order, manual checks, and the PGE rows bit for
// bit — the same fields as the root tests' fingerprintResult.
func fingerprint(res *ph.DetectionResult) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(res.Captures))
	writeInt(int64(res.Spams))
	writeInt(int64(res.Spammers))
	writeLabels(writeInt, res.Labels.SpamTweets)
	writeLabels(writeInt, res.Labels.HamTweets)
	writeLabels(writeInt, res.Labels.Spammers)
	writeLabels(writeInt, res.Labels.Benign)
	writeInt(int64(res.Labels.ManualChecks))
	for _, row := range res.PGE {
		fmt.Fprintf(h, "%#v", row.Selector)
		writeInt(int64(row.Spammers))
		writeInt(int64(row.Spams))
		writeInt(int64(row.Tweets))
		writeInt(int64(math.Float64bits(row.NodeHours)))
		writeInt(int64(math.Float64bits(row.PGE)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeLabels[K ~int64](writeInt func(int64), m map[K]ph.LabelMethod) {
	ids := make([]K, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		writeInt(int64(id))
		writeInt(int64(m[id]))
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resources fills the allocation count since before and the peak RSS, and
// returns the memory statistics it read. Call it when the run has closed and
// before any reopen.
func (r *runResult) resources(before *runtime.MemStats) (after runtime.MemStats, err error) {
	runtime.ReadMemStats(&after)
	r.Mallocs = after.Mallocs - before.Mallocs
	r.PeakRSSMB, err = peakRSSMB()
	return after, err
}
