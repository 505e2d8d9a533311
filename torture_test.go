package vas_test

// Crash-recovery torture suite (ISSUE 10 acceptance): enumerate every
// mutating file-op site the durability layer touches across a fixed
// append/delete/save schedule, crash at each one (plus a torn-write
// variant at every write site), and assert the two-sided contract:
//
//   - the LIVE catalog that experienced the crash keeps serving its
//     full in-memory state (durability degrades; serving does not), and
//   - a fresh LoadSnapshot of the crashed directory either restores a
//     consistent prefix of the acknowledged schedule (the crashing
//     operation itself may or may not have landed — never half of it,
//     never anything after it) or rejects cleanly with ErrCorrupt.
//
// The recording pass runs the schedule through a transparent
// fault.Injector to discover the op sites, so the enumeration tracks
// the real code — a new Sync or Rename in the save path automatically
// becomes a new crash site here.

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/snapshot"

	vas "repro"
)

// tortureOp is one schedule step. Far-region coordinates (>= 1000) keep
// the mutations disjoint from the base dataset, so the model below only
// has to track the points this schedule itself creates.
type tortureOp struct {
	kind string // "append" | "delete" | "save"
	pts  []vas.Point
	rect vas.Rect
}

func tortureSchedule() []tortureOp {
	return []tortureOp{
		{kind: "append", pts: []vas.Point{{X: 1000, Y: 1000}, {X: 1001, Y: 1001}, {X: 1002, Y: 1002}}},
		{kind: "append", pts: []vas.Point{{X: 1003, Y: 1003}, {X: 1004, Y: 1004}, {X: 1005, Y: 1005}}},
		{kind: "save"},
		{kind: "append", pts: []vas.Point{{X: 1006, Y: 1006}, {X: 1007, Y: 1007}}},
		{kind: "delete", rect: vas.Rect{MinX: 1002.5, MinY: 1002.5, MaxX: 1006.5, MaxY: 1006.5}},
		{kind: "append", pts: []vas.Point{{X: 1008, Y: 1008}, {X: 1009, Y: 1009}}},
		{kind: "save"},
	}
}

// tortureStates returns the expected far-region point set after each
// prefix of the schedule: states[i] is the model after the first i
// steps. Saves do not change the model.
func tortureStates() [][]vas.Point {
	sched := tortureSchedule()
	states := make([][]vas.Point, len(sched)+1)
	var cur []vas.Point
	states[0] = nil
	for i, op := range sched {
		switch op.kind {
		case "append":
			cur = append(append([]vas.Point(nil), cur...), op.pts...)
		case "delete":
			var kept []vas.Point
			for _, p := range cur {
				if p.X >= op.rect.MinX && p.X <= op.rect.MaxX &&
					p.Y >= op.rect.MinY && p.Y <= op.rect.MaxY {
					continue
				}
				kept = append(kept, p)
			}
			cur = kept
		}
		states[i+1] = cur
	}
	return states
}

// runTortureSchedule executes the schedule against a catalog bound to
// dir and returns how many leading steps were acknowledged (returned
// nil). Once one step fails, every later step must fail too — the
// process is "dead" behind the crashed filesystem — and a late success
// would break prefix semantics, so it is fatal.
func runTortureSchedule(t *testing.T, c *vas.Catalog, dir string) int {
	t.Helper()
	acked := 0
	failed := false
	for i, op := range tortureSchedule() {
		var err error
		switch op.kind {
		case "append":
			err = c.Append("gps", op.pts)
		case "delete":
			_, err = c.DeleteWhere("gps", rectPreds(op.rect))
		case "save":
			err = c.SaveSnapshot(dir)
		}
		switch {
		case err == nil && failed:
			t.Fatalf("step %d (%s) succeeded after an earlier step failed", i, op.kind)
		case err == nil:
			acked++
		default:
			failed = true
		}
	}
	return acked
}

// farTortureRect covers every point the schedule creates and nothing
// from the base dataset.
var farTortureRect = vas.Rect{MinX: 999.5, MinY: 999.5, MaxX: 1009.5, MaxY: 1009.5}

func farPoints(t *testing.T, c *vas.Catalog) []vas.Point {
	t.Helper()
	out := points(query(t, c, "gps", "exact=true&"+viewport(farTortureRect)))
	sort.Slice(out, func(a, b int) bool {
		if out[a].X != out[b].X {
			return out[a].X < out[b].X
		}
		return out[a].Y < out[b].Y
	})
	return out
}

func samePoints(a, b []vas.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].X != b[i].X || a[i].Y != b[i].Y {
			return false
		}
	}
	return true
}

func sortedCopy(pts []vas.Point) []vas.Point {
	out := append([]vas.Point(nil), pts...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].X != out[b].X {
			return out[a].X < out[b].X
		}
		return out[a].Y < out[b].Y
	})
	return out
}

// copySnapshotDir clones the baseline snapshot directory so every
// replay starts from identical bytes.
func copySnapshotDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashRecoveryTorture(t *testing.T) {
	// Baseline: a small catalog saved once with the real filesystem.
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 500, Seed: 33})
	base := vas.NewCatalog()
	if err := base.LoadTable("gps", d.Points); err != nil {
		t.Fatal(err)
	}
	if err := base.BuildSamples("gps", d.Points, []int{40}, false, vas.Options{Passes: 1}); err != nil {
		t.Fatal(err)
	}
	baseDir := t.TempDir()
	if err := base.SaveSnapshot(baseDir); err != nil {
		t.Fatal(err)
	}
	pristine := vas.NewCatalog()
	if err := pristine.LoadSnapshot(baseDir); err != nil {
		t.Fatal(err)
	}
	baseRes := query(t, pristine, "gps", "exact=true")
	baseCount := len(baseRes.Points)

	states := tortureStates()
	sched := tortureSchedule()

	// Recording pass: a transparent injector counts every mutating file
	// op the schedule performs — the crash-site enumeration.
	recDir := t.TempDir()
	copySnapshotDir(t, baseDir, recDir)
	recCat := vas.NewCatalog()
	if err := recCat.LoadSnapshot(recDir); err != nil {
		t.Fatal(err)
	}
	rec := fault.NewInjector(nil)
	restore := snapshot.SetFS(rec)
	if got := runTortureSchedule(t, recCat, recDir); got != len(sched) {
		restore()
		t.Fatalf("recording pass acked %d of %d steps", got, len(sched))
	}
	recCat.WaitBackground()
	restore()
	sites := rec.Log()
	if len(sites) == 0 {
		t.Fatal("recording pass saw no mutating file ops")
	}
	t.Logf("enumerated %d mutating file-op sites", len(sites))

	// Replay: crash at every site; torn variant at every write site.
	for k, site := range sites {
		for _, torn := range []bool{false, true} {
			if torn && site.Op != fault.OpWrite {
				continue
			}
			name := fmt.Sprintf("site-%02d-%s", k, site.Op)
			if torn {
				name += "-torn"
			}
			k := k
			t.Run(name, func(t *testing.T) {
				work := t.TempDir()
				copySnapshotDir(t, baseDir, work)
				cat := vas.NewCatalog()
				if err := cat.LoadSnapshot(work); err != nil {
					t.Fatal(err)
				}
				inj := fault.NewInjector(nil)
				inj.CrashAt(k, torn)
				restore := snapshot.SetFS(inj)
				acked := runTortureSchedule(t, cat, work)
				// Background re-save retries kicked by the failures run
				// against the crashed filesystem; drain them before the
				// seam is restored.
				cat.WaitBackground()
				restore()
				if !inj.Crashed() {
					t.Fatalf("crash point %d never fired (%d ops)", k, inj.Ops())
				}
				if acked >= len(sched) {
					t.Fatalf("crash at site %d failed no schedule step", k)
				}

				// The live catalog keeps serving its complete in-memory
				// state: every mutation went live before its durability
				// write, so the crash costs persistence, not availability.
				if got := farPoints(t, cat); !samePoints(got, sortedCopy(states[len(sched)])) {
					t.Fatalf("live catalog after crash serves %v, want full model %v",
						got, sortedCopy(states[len(sched)]))
				}

				// Recovery: either a consistent prefix — the acked steps,
				// with the crashing step itself optionally included — or a
				// clean, typed corruption error. Nothing else.
				fresh := vas.NewCatalog()
				switch err := fresh.LoadSnapshot(work); {
				case err == nil:
					got := farPoints(t, fresh)
					want1 := sortedCopy(states[acked])
					want2 := sortedCopy(states[acked+1])
					if !samePoints(got, want1) && !samePoints(got, want2) {
						t.Fatalf("recovered state %v is neither model(%d acked)=%v nor model(+crashing op)=%v",
							got, acked, want1, want2)
					}
					baseGot := query(t, fresh, "gps", "exact=true")
					if len(baseGot.Points)-len(got) != baseCount {
						t.Fatalf("base rows changed across crash recovery: %d visible minus %d far, want %d",
							len(baseGot.Points), len(got), baseCount)
					}
				case errors.Is(err, snapshot.ErrCorrupt):
					// Clean typed rejection; the catalog must stay empty.
					if code := serveQuery(fresh, "gps", "").Code; code != http.StatusNotFound {
						t.Fatalf("rejected load still published state: status %d", code)
					}
				default:
					t.Fatalf("recovery failed with an untyped error: %v", err)
				}
			})
		}
	}
}
