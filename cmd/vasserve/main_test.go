package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	vas "repro"
)

// output collects what run prints and wakes waiters on every write.
type output struct {
	mu      sync.Mutex
	text    strings.Builder
	changed chan struct{} // closed and replaced by every Write
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.text.Write(p)
	close(o.changed)
	o.changed = make(chan struct{})
	return len(p), nil
}

// served is one run in the background.
type served struct {
	out    output
	cancel context.CancelFunc
	done   chan struct{}
	err    error // run's result, set before done closes
	url    string
}

// start runs vasserve with args and returns once it serves.
func start(t *testing.T, args []string) *served {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{cancel: cancel, done: make(chan struct{})}
	s.out.changed = make(chan struct{})
	go func() {
		defer close(s.done)
		s.err = run(ctx, args, &s.out)
	}()
	t.Cleanup(func() { s.stop() })
	m := regexp.MustCompile(`serving on (\S+)\n`).FindStringSubmatch(s.waitFor(t, "serving on "))
	s.url = "http://" + m[1]
	return s
}

// waitFor returns the output once it contains want, and fails the test
// if run returns first.
func (s *served) waitFor(t *testing.T, want string) string {
	t.Helper()
	for {
		s.out.mu.Lock()
		text, changed := s.out.text.String(), s.out.changed
		s.out.mu.Unlock()
		if strings.Contains(text, want) {
			return text
		}
		select {
		case <-changed:
		case <-s.done:
			t.Fatalf("run returned %v before printing %q:\n%s", s.err, want, text)
		}
	}
}

// stop cancels run's context and returns run's result.
func (s *served) stop() error {
	s.cancel()
	<-s.done
	return s.err
}

// TestGracefulShutdown: cancelling run's context drains rather than
// drops. A request in flight finishes with its points, a final
// snapshot folds the tail log, and run returns nil. The next run
// restores that snapshot with the appended row intact.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-n", "20000", "-sizes", "100,500", "-passes", "1", "-snapshot", dir}
	first := start(t, append(args, "-request-timeout", "10s", "-max-inflight", "8", "-queue-depth", "8"))

	// An appended row gives the final snapshot tail work to fold.
	resp, err := http.Post(first.url+"/v1/append/gps", "application/json", strings.NewReader(`{"points": [[1, 2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, vas.TailFile)); err != nil {
		t.Fatalf("append left no tail log: %v", err)
	}

	// Hold an exact query in flight across the cancel: its headers are
	// unfinished, so Shutdown must wait for the connection. A second
	// connection's answer shows the server accepted the first one.
	conn, err := net.Dial("tcp", strings.TrimPrefix(first.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, "GET /v1/query?table=gps&exact=true HTTP/1.1\r\nHost: vasserve\r\n"); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(first.url + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	first.cancel()
	first.waitFor(t, "shutting down")
	if _, err := fmt.Fprint(conn, "\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight query dropped: %v", err)
	}
	var answer struct {
		Points [][2]float64 `json:"points"`
	}
	err = json.NewDecoder(resp.Body).Decode(&answer)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(answer.Points) == 0 {
		t.Fatalf("in-flight query: status %d, %d points, %v", resp.StatusCode, len(answer.Points), err)
	}
	if err := first.stop(); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	text := first.waitFor(t, "shutdown complete")
	if !strings.Contains(text, "final snapshot saved") {
		t.Fatalf("no final snapshot:\n%s", text)
	}

	second := start(t, args)
	if text := second.waitFor(t, "serving on "); !strings.Contains(text, "loaded catalog snapshot") {
		t.Fatalf("restart rebuilt instead of loading the snapshot:\n%s", text)
	}
	var tables struct {
		Tables []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"tables"`
	}
	resp, err = http.Get(second.url + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&tables)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables.Tables) != 1 || tables.Tables[0].Name != "gps" || tables.Tables[0].Rows != 20001 {
		t.Fatalf("tables after restart = %+v, want gps with 20001 rows", tables.Tables)
	}
	if err := second.stop(); err != nil {
		t.Fatalf("second shutdown returned %v", err)
	}
}
