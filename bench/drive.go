package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's width: the bench box has two cores, and a
// dashboard waits for its reply before asking again.
const clients = 2

// opResult is what the client saw of one op.
type opResult struct {
	lat   time.Duration // request written → body fully read
	bytes int           // response body bytes
	cache int8          // tiles: cacheHit or cacheMiss from X-Cache
	err   string        // transport error, bad status, or failed inline check
	body  []byte        // kept only for ops marked check
}

const (
	cacheHit  = 1
	cacheMiss = 2
)

var pngSignature = []byte("\x89PNG\r\n\x1a\n")

// drive runs ops against base as a closed loop: each of the clients takes
// the next op from a shared counter, sends it on its own keep-alive
// connection, and reads the whole reply before taking another. The work is
// the op list, not a duration, so what the server holds afterwards does
// not depend on how fast it was. It fills res, one result per op, and
// returns the wall time of the loop. sampleName is the X-Sample sampled
// tiles must carry.
func drive(ctx context.Context, base string, ops []op, sampleName string, res []opResult) time.Duration {
	var next, answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				for ops[i].barrier && answered.Load() < int64(i) && ctx.Err() == nil {
					runtime.Gosched() // at most one op, the other client's, is still out
				}
				res[i] = doOp(ctx, c, base, &ops[i], &buf, sampleName)
				answered.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	// Ops never reached (the watchdog fired) count as failed, not as absent.
	for i := int(next.Load()); i < len(ops); i++ {
		res[i].err = "not attempted: " + context.Cause(ctx).Error()
	}
	return wall
}

func doOp(ctx context.Context, c *http.Client, base string, o *op, buf *bytes.Buffer, sampleName string) opResult {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method(), base+o.path, body)
	if err != nil {
		return opResult{err: err.Error()}
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return opResult{lat: time.Since(start), err: err.Error()}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r := opResult{lat: time.Since(start), bytes: buf.Len()}
	switch {
	case err != nil:
		r.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Sprintf("status %d: %.120s", resp.StatusCode, buf.Bytes())
	default:
		r.err = inlineCheck(o, resp.Header, buf.Bytes(), sampleName)
	}
	switch resp.Header.Get("X-Cache") {
	case "HIT":
		r.cache = cacheHit
	case "MISS":
		r.cache = cacheMiss
	}
	if o.check && r.err == "" {
		r.body = bytes.Clone(buf.Bytes())
	}
	return r
}

// inlineCheck is the part of output checking cheap enough to run on every
// reply without disturbing the loop: shapes and headers. Content is checked
// after the repetition, on the ops marked check.
func inlineCheck(o *op, h http.Header, body []byte, sampleName string) string {
	switch o.kind {
	case kTile, kTileExact:
		if !bytes.HasPrefix(body, pngSignature) {
			return "tile is not a PNG"
		}
		want := sampleName
		if o.kind == kTileExact {
			want = "__exact__"
		}
		if got := h.Get("X-Sample"); got != want {
			return fmt.Sprintf("X-Sample %q, want %q", got, want)
		}
	case kAppend:
		var r struct{ Appended int }
		if err := json.Unmarshal(body, &r); err != nil || r.Appended != len(o.pts) {
			return fmt.Sprintf("append answered %.80s", body)
		}
	case kDelete:
		var r struct{ Deleted *int }
		if err := json.Unmarshal(body, &r); err != nil || r.Deleted == nil {
			return fmt.Sprintf("delete answered %.80s", body)
		}
	default:
		if len(body) == 0 || body[0] != '{' {
			return "reply is not a JSON object"
		}
	}
	return ""
}
