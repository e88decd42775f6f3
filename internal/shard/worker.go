package shard

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
)

// envWorker marks a process as a proc-mode shard worker; its value is
// "<shard>/<shards>". The coordinator spawns workers by re-executing the
// current binary with this variable set, so any binary embedding the
// coordinator must call MaybeWorker first thing in main (and in TestMain).
const envWorker = "PH_SHARD_WORKER"

// addrPrefix tags the worker's listen-address line on stdout.
const addrPrefix = "PH_SHARD_ADDR "

// MaybeWorker turns the current process into a shard worker when the
// worker env marker is set: it serves the extract RPC on a loopback
// listener, announces the address on stdout, and exits when stdin closes
// (coordinator shutdown or death). It never returns in worker processes
// and is a no-op otherwise.
func MaybeWorker() {
	spec := os.Getenv(envWorker)
	if spec == "" {
		return
	}
	var shardIdx, shards int
	if _, err := fmt.Sscanf(spec, "%d/%d", &shardIdx, &shards); err != nil {
		fmt.Fprintf(os.Stderr, "shard worker: bad %s=%q: %v\n", envWorker, spec, err)
		os.Exit(2)
	}
	if err := runWorker(shardIdx); err != nil {
		fmt.Fprintf(os.Stderr, "shard worker %d: %v\n", shardIdx, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runWorker serves one shard's extract RPC until stdin closes. It is the
// worker's only route: its telemetry closes every response, and its
// health is what the coordinator's retry loop sees.
func runWorker(shardIdx int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	core := NewWorkerCore(label.DefaultConfig())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/extract", func(w http.ResponseWriter, r *http.Request) {
		// The response is written only after the request body is fully
		// consumed: HTTP/1.1 is half-duplex, and the Go server reacts to a
		// response write with the body still uploading by draining and
		// closing the body. A failed batch maps to a non-200, which the
		// coordinator treats like a dead worker and retries.
		body, err := io.ReadAll(r.Body)
		var resp []byte
		if err == nil {
			resp, err = core.Extract(body)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "shard worker %d: extract: %v\n", shardIdx, err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(resp)
	})
	srv := &http.Server{Handler: mux}
	go func() {
		// The coordinator holds our stdin pipe open for our lifetime;
		// EOF means shutdown (or a dead coordinator — no orphans).
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	fmt.Printf("%shttp://%s\n", addrPrefix, ln.Addr())
	return srv.Serve(ln)
}

// workerProc is one spawned worker subprocess.
type workerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

// procTransport is the production Transport: one worker subprocess per
// shard, batch requests POSTed over loopback HTTP. The worker table needs
// no lock: entry s is read and swapped only by shard s's goroutine
// (Extract, Restart), and Close runs after every shard goroutine is done.
type procTransport struct {
	shards  int
	workers []*workerProc
}

// SpawnWorkers starts the production worker fleet — one subprocess per
// shard (min 1), each this binary re-executed with envWorker set — for
// FanoutConfig.Workers.
func SpawnWorkers(shards int) (Transport, error) {
	pt := &procTransport{shards: max(shards, 1)}
	for s := 0; s < pt.shards; s++ {
		w, err := spawnWorker(s, pt.shards)
		if err != nil {
			_ = pt.Close()
			return nil, err
		}
		pt.workers = append(pt.workers, w)
	}
	return pt, nil
}

// spawnWorker re-executes the current binary as a worker and waits for it
// to announce its listen address.
func spawnWorker(shardIdx, shards int) (*workerProc, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d/%d", envWorker, shardIdx, shards))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard: spawn worker %d: %w", shardIdx, err)
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, addrPrefix) {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		return nil, fmt.Errorf("shard: worker %d announced %q: %v", shardIdx, line, err)
	}
	go func() { _, _ = io.Copy(io.Discard, br) }()
	return &workerProc{
		cmd:   cmd,
		stdin: stdin,
		addr:  strings.TrimSpace(strings.TrimPrefix(line, addrPrefix)),
	}, nil
}

func (w *workerProc) kill() {
	_ = w.stdin.Close()
	_ = w.cmd.Process.Kill()
	_ = w.cmd.Wait() // the expected kill error
}

func (pt *procTransport) Extract(ctx context.Context, shard int, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, pt.workers[shard].addr+"/shard/extract", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard: worker %d returned %s", shard, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (pt *procTransport) Restart(shard int) error {
	pt.workers[shard].kill()
	w, err := spawnWorker(shard, pt.shards)
	if err != nil {
		return err
	}
	pt.workers[shard] = w
	return nil
}

func (pt *procTransport) Close() error {
	for _, w := range pt.workers {
		if w != nil {
			w.kill()
		}
	}
	return nil
}
