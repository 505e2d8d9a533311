package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	vas "repro"
	"repro/internal/obs"
)

// The timeouts cmd/vasserve puts on its listener.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpReadTimeout       = 15 * time.Second
	httpWriteTimeout      = 60 * time.Second
	httpIdleTimeout       = 120 * time.Second
)

// stack is one vasserve inside this process: the catalog's handler behind
// an http.Server on a loopback port. Real net/http and bytes on the wire,
// but no child process, so nothing can be left running.
type stack struct {
	cat  *vas.Catalog
	srv  *http.Server
	base string // "http://127.0.0.1:port"
	done chan error
}

func startStack(cat *vas.Catalog) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{
		cat: cat,
		srv: &http.Server{
			Handler:           cat.Handler(),
			ReadHeaderTimeout: httpReadHeaderTimeout,
			ReadTimeout:       httpReadTimeout,
			WriteTimeout:      httpWriteTimeout,
			IdleTimeout:       httpIdleTimeout,
		},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener, drains the connections, and returns once the
// serve goroutine and every background job of the catalog have ended.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, s.srv.Close())
	}
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	quiesce(s.cat)
	return err
}

// quiesce waits for the catalog's background re-save and for any table
// compaction.
func quiesce(cat *vas.Catalog) {
	cat.WaitBackground()
	quiesceJobs()
	cat.WaitBackground()
}

// quiesceJobs waits for table compactions. They are goroutines of
// internal/store with no handle to wait on; their in-flight count is what
// /metrics reports from obs.DefaultJobs. A compaction is launched before
// the append that triggered it returns, so two idle readings a moment
// apart mean none is pending.
func quiesceJobs() {
	for idle := 0; idle < 2; {
		if jobsInflight() == 0 {
			idle++
		} else {
			idle = 0
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func jobsInflight() int64 {
	var n int64
	for _, j := range obs.DefaultJobs.Snapshot() {
		n += j.Inflight
	}
	return n
}

// newClient returns one dashboard: a keep-alive connection of its own.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// fetch GETs path and returns the body of a 200 answer.
func fetch(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %.200s", url, resp.Status, body)
	}
	return body, nil
}

const firstQuery = "/v1/query?table=" + tableName + "&budget=" + budget

// restart is what an operator's restart costs: a new catalog loads the
// snapshot in dir (base file, then tail replay), is put behind a listener,
// and answers its first /v1/query. The stack is returned running.
func restart(dir string) (*stack, time.Duration, error) {
	start := time.Now()
	cat := vas.NewCatalog()
	if err := cat.LoadSnapshot(dir); err != nil {
		return nil, 0, fmt.Errorf("restart: %w", err)
	}
	s, err := startStack(cat)
	if err != nil {
		return nil, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	if _, err := fetch(c, s.base+firstQuery); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("restart: first query: %w", err), s.stop())
	}
	return s, time.Since(start), nil
}

// liveHeap returns the bytes reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle may leave finalizer-held objects behind
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// scrape reads /metrics into a map from sample name (labels included, as
// printed) to value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	body, err := fetch(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// copySnapshot gives a repetition a snapshot directory of its own, so each
// starts from identical state and writes a tail log nobody else sees.
func copySnapshot(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(from, vas.SnapshotFile))
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(to, vas.SnapshotFile), data, 0o644)
}
