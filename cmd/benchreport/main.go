// Command benchreport regenerates the paper's evaluation tables and
// figures on the simulated substrate and prints them as text.
//
// Usage:
//
//	benchreport [-scale small|medium|full] [-table N] [-figure N]
//
// Without -table/-figure every experiment is regenerated (Tables II–VII
// and Figures 2–6). The heavy simulation phases are shared across
// experiments, so requesting everything costs little more than the largest
// single phase.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleName = fs.String("scale", "small", "experiment scale: small, medium, or full")
		table     = fs.Int("table", 0, "regenerate only Table N (2-7)")
		figure    = fs.Int("figure", 0, "regenerate only Figure N (2-6)")
		format    = fs.String("format", "text", "output format: text, csv, or json")
		outDir    = fs.String("out", "", "also write each experiment as a CSV file into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *table != 0 && (*table < 2 || *table > 7) {
		return fmt.Errorf("no Table %d: -table takes 2-7", *table)
	}
	if *figure != 0 && (*figure < 2 || *figure > 6) {
		return fmt.Errorf("no Figure %d: -figure takes 2-6", *figure)
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}

	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	r := experiments.NewRunner(scale)
	// The banner goes to stderr for machine-readable formats, keeping
	// stdout pure CSV/JSON.
	banner := stdout
	if *format != "text" {
		banner = stderr
	}
	fmt.Fprintf(banner, "benchreport: scale=%s (world: %d accounts; main run: %d h × %d-node network)\n\n",
		scale.Name, scale.World.NumAccounts, scale.MainHours,
		core.TotalNodes(core.StandardSpecs(scale.NodesPerValue)))

	wantTable := func(n int) bool { return *table == n || (*table == 0 && *figure == 0) }
	wantFigure := func(n int) bool { return *figure == n || (*table == 0 && *figure == 0) }

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	fileSeq := 0
	type renderable interface {
		Render() string
		WriteCSV(io.Writer) error
	}
	saveCSV := func(v renderable) error {
		if *outDir == "" {
			return nil
		}
		fileSeq++
		name := filepath.Join(*outDir, fmt.Sprintf("%02d-%s.csv", fileSeq, slugOf(v.Render())))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := v.WriteCSV(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	show := func(v renderable, err error) error {
		if err != nil {
			return err
		}
		if err := saveCSV(v); err != nil {
			return err
		}
		switch *format {
		case "csv":
			if err := v.WriteCSV(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		case "json":
			data, err := json.Marshal(v)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(data))
		default:
			fmt.Fprintln(stdout, v.Render())
		}
		return nil
	}

	if wantTable(2) {
		t, err := r.TableII()
		if err := show(t, err); err != nil {
			return err
		}
	}
	if wantTable(3) {
		t, err := r.TableIII()
		if err := show(t, err); err != nil {
			return err
		}
	}
	if wantTable(4) {
		t, err := r.TableIV()
		if err := show(t, err); err != nil {
			return err
		}
	}
	if wantTable(4) {
		t, err := r.TopFeatures(10)
		if err := show(t, err); err != nil {
			return err
		}
	}
	if wantTable(5) {
		t, err := r.TableV()
		if err := show(t, err); err != nil {
			return err
		}
	}
	if wantTable(6) {
		t, err := r.TableVI()
		if err := show(t, err); err != nil {
			return err
		}
	}
	if wantTable(7) {
		t, err := r.TableVII()
		if err := show(t, err); err != nil {
			return err
		}
		if *format == "text" {
			vsLit, vsSim, serr := r.SpeedupOverLiterature()
			if serr != nil {
				return serr
			}
			fmt.Fprintf(stdout, "advanced pseudo-honeypot PGE speedup: %.1fx vs best literature honeypot (absolute PGE is scale-dependent; see EXPERIMENTS.md)\n", vsLit)
			if vsSim > 0 {
				fmt.Fprintf(stdout, "speedup vs the traditional honeypot simulated in the same world: %.1fx\n\n", vsSim)
			} else {
				fmt.Fprintf(stdout, "the traditional honeypot simulated in the same world captured no spammers at all\n\n")
			}
		}
	}
	if wantFigure(2) {
		f, err := r.Figure2()
		if err := show(f, err); err != nil {
			return err
		}
	}
	if wantFigure(3) {
		panels, err := r.Figure3()
		if err != nil {
			return err
		}
		for _, p := range panels {
			if err := show(p, nil); err != nil {
				return err
			}
		}
	}
	if wantFigure(4) {
		f, err := r.Figure4()
		if err := show(f, err); err != nil {
			return err
		}
	}
	if wantFigure(5) {
		f, err := r.Figure5()
		if err := show(f, err); err != nil {
			return err
		}
	}
	if wantFigure(6) {
		f, err := r.Figure6()
		if err := show(f, err); err != nil {
			return err
		}
	}
	return nil
}

// slugOf derives a short filesystem-safe name from a render's first line.
func slugOf(rendered string) string {
	line := rendered
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	var b strings.Builder
	for _, r := range strings.ToLower(line) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			if b.Len() > 0 && !strings.HasSuffix(b.String(), "-") {
				b.WriteByte('-')
			}
		}
		if b.Len() >= 40 {
			break
		}
	}
	slug := strings.Trim(b.String(), "-")
	if slug == "" {
		slug = "experiment"
	}
	return slug
}
